(* Equivalence of GreedyWPO's exact residual-MLU scan skip.

   The oracle below is the greedy as it ran before the skip: every
   demand visit builds its full candidate list and scans all of it.  It
   is sequential and deliberately plain, but keeps the library's
   arithmetic — candidates in ascending node order (the [Drop] option
   first on improvement passes), each scored on a pristine copy of the
   residual loads, first-of-the-minima argmin, the same 1e-12 strict
   improvement test — so the skipping greedy must reproduce its
   waypoints and MLU bit for bit.

   Covered: [optimize_ctx] with passes 1 and 2 (pass 2 exercises the
   [Drop] candidate) and [optimize_multi_ctx] with rounds 2, on 200
   seeded random instances and on gravity matrices for Abilene and
   Germany50; on the gravity matrices the [wpo.*] scan counters must
   also be identical on a 2-domain pool. *)

open Netgraph
open Te

type cand = Drop | Way of int

let desc_order demands =
  let idx = Array.init (Array.length demands) Fun.id in
  Array.sort
    (fun a b -> compare demands.(b).Network.size demands.(a).Network.size)
    idx;
  idx

(* Strict first-of-the-minima over [cands]; unroutable candidates are
   skipped.  [None] when nothing is routable. *)
let scan g ~loads ~buf ~add_cand cands =
  let m = Digraph.edge_count g in
  let best = ref None in
  Array.iteri
    (fun j c ->
      Array.blit loads 0 buf 0 m;
      match add_cand buf c with
      | exception Engine.Evaluator.Unroutable _ -> ()
      | () ->
        let u = ref 0. in
        for e = 0 to m - 1 do
          let r = buf.(e) /. Digraph.cap g e in
          if r > !u then u := r
        done;
        (match !best with
        | Some (bu, _) when bu <= !u -> ()
        | _ -> best := Some (!u, j)))
    cands;
  !best

let setup g w demands =
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev (Network.to_commodities demands);
  let loads = Array.copy (Engine.Evaluator.loads ev) in
  let add src dst scale into =
    Engine.Evaluator.add_unit ev ~src ~dst ~scale ~into
  in
  (loads, add, Array.make (Digraph.edge_count g) 0.)

let oracle_single ~passes g w demands =
  let n = Digraph.node_count g in
  let loads, add, buf = setup g w demands in
  let waypoints = Array.make (Array.length demands) None in
  let u_min = ref (Engine.Evaluator.mlu_of_loads g loads) in
  let add_segments i scale =
    let d = demands.(i) in
    match waypoints.(i) with
    | None -> add d.Network.src d.Network.dst scale loads
    | Some w ->
      add d.Network.src w scale loads;
      add w d.Network.dst scale loads
  in
  for pass = 1 to passes do
    Array.iter
      (fun i ->
        let d = demands.(i) in
        let src = d.Network.src and dst = d.Network.dst in
        let size = d.Network.size in
        add_segments i (-.size);
        let ways =
          List.filter_map
            (fun w ->
              if w <> src && w <> dst && Some w <> waypoints.(i) then
                Some (Way w)
              else None)
            (List.init n Fun.id)
        in
        let cands =
          Array.of_list
            (if pass > 1 && waypoints.(i) <> None then Drop :: ways else ways)
        in
        let add_cand buf = function
          | Drop -> add src dst size buf
          | Way w ->
            add src w size buf;
            add w dst size buf
        in
        (match scan g ~loads ~buf ~add_cand cands with
        | Some (u, j) when u < !u_min -. 1e-12 ->
          waypoints.(i) <-
            (match cands.(j) with Drop -> None | Way w -> Some w)
        | _ -> ());
        add_segments i size;
        u_min := Engine.Evaluator.mlu_of_loads g loads)
      (desc_order demands)
  done;
  (waypoints, Engine.Evaluator.mlu_of_loads g loads)

let oracle_multi ~rounds g w demands =
  let n = Digraph.node_count g in
  let loads, add, buf = setup g w demands in
  let setting = Array.make (Array.length demands) [] in
  let u_min = ref (Engine.Evaluator.mlu_of_loads g loads) in
  for _ = 1 to rounds do
    Array.iter
      (fun i ->
        let d = demands.(i) in
        let dst = d.Network.dst and size = d.Network.size in
        let anchor =
          match List.rev setting.(i) with w :: _ -> w | [] -> d.Network.src
        in
        if anchor <> dst then begin
          add anchor dst (-.size) loads;
          let cands =
            Array.of_list
              (List.filter (fun w -> w <> anchor && w <> dst)
                 (List.init n Fun.id))
          in
          let add_cand buf w =
            add anchor w size buf;
            add w dst size buf
          in
          match scan g ~loads ~buf ~add_cand cands with
          | Some (u, j) when u < !u_min -. 1e-12 ->
            let w = cands.(j) in
            setting.(i) <- setting.(i) @ [ w ];
            u_min := u;
            add anchor w size loads;
            add w dst size loads
          | _ -> add anchor dst size loads
        end)
      (desc_order demands)
  done;
  (setting, Engine.Evaluator.mlu_of_loads g loads)

let skipped (ctx : Obs.Ctx.t) =
  Option.value ~default:0
    (List.assoc_opt "wpo.scans_skipped" (Obs.Metrics.counters ctx.Obs.Ctx.metrics))

(* Checks all three greedy variants on one instance and returns how
   many scans the skipping runs left out. *)
let check_instance name g w demands =
  let total = ref 0 in
  List.iter
    (fun passes ->
      let ctx = Obs.Ctx.make () in
      let r = Greedy_wpo.optimize_ctx ctx ~passes g w demands in
      let ways, mlu = oracle_single ~passes g w demands in
      if r.Greedy_wpo.waypoints <> ways then
        Alcotest.failf "%s passes %d: waypoints differ from the oracle" name
          passes;
      if Int64.bits_of_float r.Greedy_wpo.mlu <> Int64.bits_of_float mlu then
        Alcotest.failf "%s passes %d: mlu %h <> oracle %h" name passes
          r.Greedy_wpo.mlu mlu;
      total := !total + skipped ctx)
    [ 1; 2 ];
  let ctx = Obs.Ctx.make () in
  let r = Greedy_wpo.optimize_multi_ctx ctx ~rounds:2 g w demands in
  let setting, mlu = oracle_multi ~rounds:2 g w demands in
  if r.Greedy_wpo.setting <> setting then
    Alcotest.failf "%s rounds 2: waypoint lists differ from the oracle" name;
  if Int64.bits_of_float r.Greedy_wpo.mlu <> Int64.bits_of_float mlu then
    Alcotest.failf "%s rounds 2: mlu %h <> oracle %h" name r.Greedy_wpo.mlu mlu;
  !total + skipped ctx

let random_instance seed =
  let nodes = 6 + (seed mod 13) in
  let links = nodes + 1 + (seed mod 11) in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "skip%d" seed) ~nodes
      ~links ()
  in
  let st = Random.State.make [| 0x5c1; seed |] in
  let demands =
    Array.init
      (nodes + Random.State.int st (2 * nodes))
      (fun _ ->
        let s = Random.State.int st nodes in
        let d = (s + 1 + Random.State.int st (nodes - 1)) mod nodes in
        Network.demand s d (float_of_int (1 + Random.State.int st 9)))
  in
  (* Integer-valued random weights half of the time, so ties between
     candidates (and equal-cost splits) are common. *)
  let w =
    if seed mod 2 = 0 then Weights.inverse_capacity g
    else
      Array.init (Digraph.edge_count g) (fun _ ->
          float_of_int (1 + Random.State.int st 4))
  in
  (g, w, demands)

let test_random () =
  let skips = ref 0 in
  for seed = 1 to 200 do
    let g, w, demands = random_instance seed in
    skips :=
      !skips + check_instance (Printf.sprintf "seed %d" seed) g w demands
  done;
  Alcotest.(check bool) "the skip fired" true (!skips > 0)

let wpo_counters (ctx : Obs.Ctx.t) =
  List.filter
    (fun (k, _) -> String.starts_with ~prefix:"wpo." k)
    (Obs.Metrics.counters ctx.Obs.Ctx.metrics)

(* The skip is decided on the orchestrating domain, so the scan
   counters (like the result) must not depend on the pool size. *)
let check_jobs name g w demands =
  let seq = Obs.Ctx.make () in
  let r1 = Greedy_wpo.optimize_ctx seq ~passes:2 g w demands in
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      let par = Obs.Ctx.make ~pool () in
      let r2 = Greedy_wpo.optimize_ctx par ~passes:2 g w demands in
      Alcotest.(check bool) (name ^ ": jobs 2 waypoints") true
        (r1.Greedy_wpo.waypoints = r2.Greedy_wpo.waypoints);
      Alcotest.(check (list (pair string int)))
        (name ^ ": jobs 2 scan counters") (wpo_counters seq) (wpo_counters par))

(* The gravity matrices' MCF rescaling only multiplies every size by
   one constant, which cannot matter to the equivalence, so Germany50
   uses a coarse scaling epsilon to keep the FPTAS short. *)
let test_gravity () =
  List.iter
    (fun (name, epsilon) ->
      let g = Topology.Datasets.load name in
      let w = Weights.inverse_capacity g in
      let demands = Demand_gen.gravity ~epsilon ~seed:1 g in
      let skips = check_instance name g w demands in
      Alcotest.(check bool) (name ^ ": the skip fired") true (skips > 0);
      check_jobs name g w demands)
    [ ("Abilene", 0.15); ("Germany50", 0.5) ]

let () =
  Alcotest.run "wpo-skip"
    [
      ( "oracle",
        [
          Alcotest.test_case "200 seeded instances" `Quick test_random;
          Alcotest.test_case "gravity Abilene and Germany50" `Quick
            test_gravity;
        ] );
    ]
