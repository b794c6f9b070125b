(* What the runner needs from a workload. *)

type pass = {
  lat : float array;  (** per operation, seconds, in operation order *)
  busy : float;  (** seconds spent inside operations *)
  ops : int;
}

module type S = sig
  type t

  type out
  (** The pass's results, in operation order. *)

  val name : string

  val setup : tiny:bool -> seed:int -> t
  (** Topology load, input generation and the initial deploy / daemon /
      pool creation: what [setup_s] times. *)

  val setup_layers : t -> (string * float) list
  (** Per-layer seconds of the set-up that built [t]. *)

  val close : t -> unit

  val pass_len : t -> int
  (** Operations in one pass of the fixed list. *)

  val ctx : t -> trace:bool -> Obs.Ctx.t
  (** A fresh run context on the workload's pool; [trace] makes its
      tracer live. *)

  val pool : t -> Par.Pool.t

  val run : t -> Obs.Ctx.t -> more:(int -> bool) -> pass * out
  (** Runs operations [0, 1, ...] (operation [i] is item [i mod
      pass_len] of the list) in blocks; before each block it asks [more
      ops_done] whether to go on. *)

  val same : out -> out -> bool
  (** Do two passes agree on every operation both ran? *)

  val check : t -> out -> unit
  (** Output checks, counted into {!Meter.tally}. *)

  val corrupt : out -> out
  (** The pass with one result deliberately broken (self-check). *)

  val ops_per_s : pass -> out -> float

  val quality : out -> float * float
  (** [mlu], [worst_mlu] over the first pass of the list. *)

  val layer_metrics : t -> out -> Obs.Span.t list -> (string * float) list
  (** Workload-specific per-layer metrics of a traced pass. *)

  val moves : Obs.Span.t -> Obs.Span.t list -> (string * string * float) list
  (** Extra (from layer, to layer, seconds) moves for one root span
      given its direct children; see {!Meter.attribute}. *)
end

(* Runs blocks of [block] operations while [more ops_done] holds. *)
let blocks ~block ~more f =
  let ops = ref 0 in
  while more !ops do
    for _ = 1 to block do
      f !ops;
      incr ops
    done
  done;
  !ops
