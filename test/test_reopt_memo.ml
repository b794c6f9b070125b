(* Equivalence of Reopt's exact probe memo.

   The oracle below is the budgeted weight search as it ran before the
   memo: every candidate move is applied, evaluated and undone, even
   when the same (edge, weight) move was already scored from the same
   committed state.  It keeps the library's arithmetic — the same
   random stream, candidate order, first-of-the-minima pick and 1e-12
   acceptance test — so the memoized search must reproduce its
   weights, waypoints, MLU and churn bit for bit.

   Covered: 200 seeded random instances (frozen edges, budgets 0, 1
   and m and the default, small wmax so repeats are frequent, random
   deployed waypoints), one warm evaluator reused across 20 calls as
   the serving loop does, and gravity matrices on Abilene and
   Germany50, where the memo must also have answered some probes. *)

open Netgraph
open Te

let oracle (ctx : Obs.Ctx.t) ~ls_params ?max_weight_changes
    ?(frozen_edges = []) ?ev ~deployed_weights ~deployed_waypoints g demands
    =
  let stats = ctx.Obs.Ctx.stats in
  let m = Digraph.edge_count g in
  let frozen = Hashtbl.create 4 in
  List.iter (fun e -> Hashtbl.replace frozen e ()) frozen_edges;
  let budget =
    match max_weight_changes with Some b -> b | None -> max 1 (m / 10)
  in
  let st = Random.State.make [| ls_params.Local_search.seed; 0x4e09 |] in
  let wmax = ls_params.Local_search.wmax in
  let ev =
    match ev with
    | Some ev ->
      Engine.Evaluator.set_weights ev (Weights.of_ints deployed_weights);
      Engine.Evaluator.commit ev;
      ev
    | None ->
      Engine.Evaluator.create ~stats g (Weights.of_ints deployed_weights)
  in
  Hashtbl.iter (fun e () -> Engine.Evaluator.disable_edge ev ~edge:e) frozen;
  Engine.Evaluator.commit ev;
  Engine.Evaluator.set_commodities ev
    (Network.to_commodities (Segments.expand demands deployed_waypoints));
  let current = Array.copy deployed_weights in
  let cell = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  let eval_mlu () =
    Engine.Evaluator.evaluate_into ev cell;
    cell.Engine.Evaluator.mlu
  in
  let caps = Digraph.caps g in
  let cur_mlu = ref (eval_mlu ()) in
  let deployed_mlu = !cur_mlu in
  let changed = Hashtbl.create 8 in
  let best_w = ref (Array.copy current) and best_mlu = ref !cur_mlu in
  let evals = ref 0 in
  while !evals < ls_params.Local_search.max_evals do
    let e =
      if Random.State.float st 1. < 0.6 then begin
        let loads = Engine.Evaluator.loads ev in
        let arg = ref 0 and best = ref neg_infinity in
        for e = 0 to m - 1 do
          let u = loads.(e) /. caps.(e) in
          if u > !best && not (Hashtbl.mem frozen e) then begin
            best := u;
            arg := e
          end
        done;
        !arg
      end
      else Random.State.int st m
    in
    let admissible =
      (not (Hashtbl.mem frozen e))
      && (Hashtbl.mem changed e || Hashtbl.length changed < budget)
    in
    if admissible then begin
      let old = current.(e) in
      let candidates =
        List.sort_uniq compare
          (List.filter
             (fun w -> w >= 1 && w <= wmax && w <> old)
             [ old + 1; old + 2; wmax; old - 1; 1; deployed_weights.(e);
               1 + Random.State.int st wmax ])
      in
      let best_cand = ref None in
      List.iter
        (fun wv ->
          if !evals < ls_params.Local_search.max_evals then begin
            incr evals;
            Engine.Evaluator.set_weight ev ~edge:e (float_of_int wv);
            let mlu = eval_mlu () in
            Engine.Evaluator.undo ev;
            match !best_cand with
            | Some (bm, _) when bm <= mlu -> ()
            | _ -> best_cand := Some (mlu, wv)
          end)
        candidates;
      match !best_cand with
      | Some (mlu, wv) when mlu < !cur_mlu -. 1e-12 ->
        current.(e) <- wv;
        Engine.Evaluator.set_weight ev ~edge:e (float_of_int wv);
        Engine.Evaluator.commit ev;
        cur_mlu := mlu;
        if wv = deployed_weights.(e) then Hashtbl.remove changed e
        else Hashtbl.replace changed e ();
        if mlu < !best_mlu -. 1e-12 then begin
          best_mlu := mlu;
          best_w := Array.copy current
        end
      | _ -> ()
    end
    else incr evals
  done;
  let best_w_float = Weights.of_ints !best_w in
  Hashtbl.iter (fun e () -> best_w_float.(e) <- infinity) frozen;
  let wpo = Greedy_wpo.optimize_ctx ctx g best_w_float demands in
  let candidates =
    [ (Array.copy deployed_weights, deployed_waypoints, deployed_mlu);
      (!best_w, deployed_waypoints, !best_mlu);
      (!best_w, Segments.of_single wpo.Greedy_wpo.waypoints,
       wpo.Greedy_wpo.mlu) ]
  in
  let weights, waypoints, mlu =
    List.fold_left
      (fun (bw, bs, bm) (w, s, v) ->
        if v < bm -. 1e-12 then (w, s, v) else (bw, bs, bm))
      (List.hd candidates) (List.tl candidates)
  in
  { Reopt.weights; waypoints; mlu;
    churn =
      Reopt.churn_between ~deployed_weights ~deployed_waypoints weights
        waypoints }

let counter (ctx : Obs.Ctx.t) name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Metrics.counters ctx.Obs.Ctx.metrics))

let attempt f = try Some (f ()) with Engine.Evaluator.Unroutable _ -> None

let same name (a : Reopt.result) (b : Reopt.result) =
  if a.Reopt.weights <> b.Reopt.weights then
    Alcotest.failf "%s: weights differ from the oracle" name;
  if a.Reopt.waypoints <> b.Reopt.waypoints then
    Alcotest.failf "%s: waypoints differ from the oracle" name;
  if Int64.bits_of_float a.Reopt.mlu <> Int64.bits_of_float b.Reopt.mlu then
    Alcotest.failf "%s: mlu %h <> oracle %h" name a.Reopt.mlu b.Reopt.mlu;
  if a.Reopt.churn <> b.Reopt.churn then
    Alcotest.failf "%s: churn differs from the oracle" name

(* Runs both searches on fresh contexts; returns the memo's hit count,
   or [None] when both found a demand unroutable without the frozen
   edges.  Without a warm evaluator both build theirs on the context's
   stats, so a memoized run must evaluate exactly [hits] times fewer. *)
let check name ~ls_params ?max_weight_changes ?frozen_edges
    ~deployed_weights ~deployed_waypoints g demands =
  let ctx = Obs.Ctx.make () and octx = Obs.Ctx.make () in
  let run () =
    Reopt.reoptimize_ctx ctx ~ls_params ?max_weight_changes ?frozen_edges
      ~deployed_weights ~deployed_waypoints g demands
  in
  let run_oracle () =
    oracle octx ~ls_params ?max_weight_changes ?frozen_edges
      ~deployed_weights ~deployed_waypoints g demands
  in
  match (attempt run, attempt run_oracle) with
  | None, None -> None
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: only one side found a demand unroutable" name
  | Some r, Some o ->
    same name r o;
    let hits = counter ctx "reopt.probe_hits" in
    let evaluations (c : Obs.Ctx.t) =
      c.Obs.Ctx.stats.Engine.Stats.evaluations
    in
    Alcotest.(check int)
      (name ^ ": evaluations saved = hits")
      (evaluations octx) (evaluations ctx + hits);
    if counter ctx "reopt.probes" < hits then
      Alcotest.failf "%s: more hits than probes" name;
    Some hits

let random_instance seed =
  let nodes = 5 + (seed mod 11) in
  let links = nodes + 2 + (seed mod 9) in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "memo%d" seed) ~nodes
      ~links ()
  in
  let st = Random.State.make [| 0x3e30; seed |] in
  let demands =
    Array.init
      (nodes + Random.State.int st (2 * nodes))
      (fun _ ->
        let s = Random.State.int st nodes in
        let d = (s + 1 + Random.State.int st (nodes - 1)) mod nodes in
        Network.demand s d (float_of_int (1 + Random.State.int st 9)))
  in
  (g, st, demands)

let test_random () =
  let hits = ref 0 and frozen_runs = ref 0 in
  for seed = 1 to 200 do
    let g, st, demands = random_instance seed in
    let m = Digraph.edge_count g in
    let nodes = Digraph.node_count g in
    (* Small weight ranges make repeated moves common. *)
    let wmax = [| 2; 3; 5; 16 |].(seed mod 4) in
    let deployed_weights =
      Array.init m (fun _ -> 1 + Random.State.int st wmax)
    in
    let deployed_waypoints =
      Array.map
        (fun d ->
          let w = Random.State.int st nodes in
          if seed mod 3 = 0 && w <> d.Network.src && w <> d.Network.dst then
            [ w ]
          else [])
        demands
    in
    let max_weight_changes =
      match seed mod 4 with 0 -> Some 0 | 1 -> Some 1 | 2 -> Some m | _ -> None
    in
    let frozen_edges =
      if seed mod 5 < 2 then
        List.init (1 + (seed mod 2)) (fun _ -> Random.State.int st m)
      else []
    in
    let ls_params =
      { Local_search.default_params with
        wmax; seed; max_evals = 40 + (seed * 7 mod 260) }
    in
    match
      check (Printf.sprintf "seed %d" seed) ~ls_params ?max_weight_changes
        ~frozen_edges ~deployed_weights ~deployed_waypoints g demands
    with
    | None -> ()
    | Some h ->
      hits := !hits + h;
      if frozen_edges <> [] then incr frozen_runs
  done;
  Alcotest.(check bool) "the memo answered probes" true (!hits > 0);
  Alcotest.(check bool) "frozen-edge instances ran" true (!frozen_runs > 20)

(* The serving loop keeps one evaluator alive across updates: each call
   re-syncs it to the deployed weights.  Both searches get their own
   warm evaluator and walk the same 20-update chain, redeploying each
   result. *)
let test_warm_ev () =
  let g = Topology.Datasets.load "Abilene" in
  let m = Digraph.edge_count g in
  let base = Demand_gen.gravity ~epsilon:0.15 ~seed:2 g in
  let w0 = Weights.round_to_range ~wmax:16 (Weights.inverse_capacity g) in
  let ev = Engine.Evaluator.create g (Weights.of_ints w0) in
  let oev = Engine.Evaluator.create g (Weights.of_ints w0) in
  let weights = ref w0 and waypoints = ref (Segments.none base) in
  let hits = ref 0 in
  for step = 1 to 20 do
    let st = Random.State.make [| 0x3e31; step |] in
    let demands =
      Array.map
        (fun d ->
          let f = 0.8 +. Random.State.float st 0.4 in
          { d with Network.size = d.Network.size *. f })
        base
    in
    let ls_params =
      { Local_search.default_params with seed = step; max_evals = 200 }
    in
    let frozen_edges = if step mod 4 = 0 then [ step mod m ] else [] in
    let max_weight_changes = if step mod 5 = 0 then m else 2 in
    let ctx = Obs.Ctx.make () in
    let r =
      attempt (fun () ->
          Reopt.reoptimize_ctx ctx ~ls_params ~max_weight_changes ~frozen_edges
            ~ev ~deployed_weights:!weights ~deployed_waypoints:!waypoints g
            demands)
    in
    let o =
      attempt (fun () ->
          oracle (Obs.Ctx.make ()) ~ls_params ~max_weight_changes ~frozen_edges
            ~ev:oev ~deployed_weights:!weights ~deployed_waypoints:!waypoints g
            demands)
    in
    (* Frozen edges stay disabled on return; the next call re-syncs
       every weight, which re-enables them. *)
    match (r, o) with
    | None, None -> ()
    | Some r, Some o ->
      same (Printf.sprintf "warm step %d" step) r o;
      hits := !hits + counter ctx "reopt.probe_hits";
      weights := r.Reopt.weights;
      waypoints := r.Reopt.waypoints
    | _ -> Alcotest.failf "warm step %d: only one side was unroutable" step
  done;
  Alcotest.(check bool) "the memo answered probes" true (!hits > 0)

(* Gravity scaling multiplies every size by one constant, which cannot
   matter to the equivalence, so Germany50 uses a coarse epsilon. *)
let test_gravity () =
  List.iter
    (fun (name, epsilon) ->
      let g = Topology.Datasets.load name in
      let demands = Demand_gen.gravity ~epsilon ~seed:1 g in
      let deployed_weights =
        Weights.round_to_range ~wmax:16 (Weights.inverse_capacity g)
      in
      let m = Digraph.edge_count g in
      let ls_params =
        { Local_search.default_params with seed = 3; max_evals = 400 }
      in
      let run label ~max_weight_changes ~frozen_edges =
        check
          (Printf.sprintf "%s %s" name label)
          ~ls_params ~max_weight_changes ~frozen_edges ~deployed_weights
          ~deployed_waypoints:(Segments.none demands) g demands
      in
      let hits =
        List.map
          (fun (label, max_weight_changes) ->
            match run label ~max_weight_changes ~frozen_edges:[] with
            | Some h -> h
            | None -> Alcotest.failf "%s %s: unroutable" name label)
          [ ("budget m/10", max 1 (m / 10)); ("budget m", m); ("budget 0", 0) ]
      in
      (* A failed link: the lowest-numbered one whose loss leaves every
         demand routable. *)
      let rec frozen e =
        if e >= m then Alcotest.failf "%s: no survivable link failure" name
        else
          match
            run (Printf.sprintf "frozen %d" e)
              ~max_weight_changes:(max 1 (m / 10)) ~frozen_edges:[ e ]
          with
          | Some _ -> ()
          | None -> frozen (e + 1)
      in
      frozen 0;
      if name = "Germany50" then
        Alcotest.(check bool) "Germany50: probe_hits > 0" true
          (List.fold_left ( + ) 0 hits > 0))
    [ ("Abilene", 0.15); ("Germany50", 0.5) ]

let () =
  Alcotest.run "reopt-memo"
    [
      ( "oracle",
        [
          Alcotest.test_case "200 seeded instances" `Quick test_random;
          Alcotest.test_case "warm evaluator across 20 calls" `Quick
            test_warm_ev;
          Alcotest.test_case "gravity Abilene and Germany50" `Quick
            test_gravity;
        ] );
    ]
