(** Candidate preprocessing for the waypoint optimizers.

    GreedyWPO and JOINT scan every (commodity x waypoint) pair — the
    O(n^2) cost that dominates at scale.  This pass shrinks the scan
    {e before} the solver runs, in the spirit of Brundiers et al.
    ("Preprocess your Paths", arXiv 2312.00518) and the centrality
    middlepoint selection of Trimponias et al. (arXiv 1703.05907):

    {ul
    {- a {b global middlepoint pool}: every node is scored by ECMP-aware
       betweenness — the demand-weighted fraction of shortest-path flow
       passing through it, read straight off the engine's cached
       per-destination SPF DAGs ({!Engine.Evaluator.node_flows}), so
       scoring performs no SPF run beyond what computing the loads
       already did.  [Centrality] keeps the top-k scorers; [Coverage]
       picks k nodes greedily by {e marginal} covered flow (each pick
       discounts the commodities it already covers, penalizing redundant
       candidates that sit on the same bottleneck paths);}
    {- a {b per-commodity filter}: for each (src, dst) pair the pool is
       reduced further — waypoints the pair cannot use are dropped
       (cannot reach [dst]; on {e every} shortest src-dst path already,
       where routing via the waypoint provably reproduces the direct
       ECMP split), [Reach] mode additionally empties the list of
       commodities whose direct route touches no edge hotter than
       [threshold] times the initial MLU, and the surviving list is
       capped at [k].}}

    This pass only restricts candidates; the exact residual-MLU skip of
    whole scans is part of the greedy itself ({!Greedy_wpo}) and runs
    with or without pruning.

    Pruning is off by default everywhere ([?prune = None]); every
    solver's output without it is byte-identical to previous releases.
    A spec with [k >= n] in [Centrality]/[Coverage] mode is a
    documented no-op ({!is_no_op}): the solvers then never call
    {!prepare} and reproduce the unpruned results byte-identically
    (asserted by the test suite).  All candidate lists are built by the
    orchestrating domain from one evaluator, so pruned runs keep the
    bit-identical-across-[--jobs] guarantee. *)

type mode =
  | Centrality  (** top-k pool by ECMP-betweenness score *)
  | Coverage  (** greedy marginal group-coverage pool of size k *)
  | Reach
      (** no global pool restriction: per-commodity filters plus the
          score-ordered cap at [k] only *)

type spec = {
  mode : mode;
  k : int;  (** pool size and per-commodity candidate cap *)
  threshold : float;
      (** [Reach] only: a commodity whose direct route's hottest edge
          sits below [threshold *. initial_mlu] gets an empty candidate
          list (rerouting it cannot lower the initial maximum).  The
          default is [0.] — disabled. *)
}

val default_k : int
(** The default pool size (16) used by the CLI when [--prune] is given
    a non-positive value and by the bench experiment. *)

val spec : ?mode:mode -> ?threshold:float -> int -> spec
(** [spec k] with mode [Centrality] and threshold [0.].
    @raise Invalid_argument if [k < 1] or [threshold < 0]. *)

val is_no_op : spec -> nodes:int -> bool
(** [true] when [spec] cannot restrict anything on a graph of [nodes]
    nodes ([k >= nodes] in [Centrality]/[Coverage] mode): solvers skip
    the pass entirely and run unpruned. *)

val mode_name : mode -> string

val mode_of_string : string -> (mode, string) result
(** Inverse of {!mode_name}; [Error] carries a usage message. *)

type t
(** A prepared pruner: global scores, the pool, and the per-pair
    candidate cache.  Bound to the evaluator it was prepared from (same
    weights, prepare-time loads); use only from the domain that owns
    that evaluator. *)

val prepare :
  Obs.Ctx.t -> spec -> Engine.Evaluator.t -> Network.demand array -> t
(** Scores middlepoints and selects the pool for [demands] under the
    evaluator's current weights and commodity loads.  The evaluator must
    already have its commodities attached.  Records one
    ["prune:prepare"] span (attrs: mode, k, pool size) on the context's
    tracer.  Unroutable pairs contribute no score and are skipped. *)

val pool : t -> int array
(** The global middlepoint pool, best score first (a copy). *)

val candidates : t -> src:int -> dst:int -> int array
(** The pruned waypoint candidates for segment [(src, dst)], best score
    first, endpoints excluded, capped at [spec.k] (memoized per pair; do
    not mutate).  Multi-round greedies pass the current segment anchor
    as [src]. *)
