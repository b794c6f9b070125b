(* robust: a closed loop of what-if queries on Germany50 against a
   deployed Joint setting, on a pool of two domains.  Each query is one
   [Scenario.sweep_ctx] call for one scenario under the Static, Repair
   and Reweight-8 policies: read-only probe-and-undo work through the
   engine, fanned out by the work-stealing pool. *)

let name = "robust"

let domains = 2

let policies = [ Scenario.Static; Scenario.Repair; Scenario.Reweight 8 ]

type t = {
  queries : Gen.whatif;
  deployed : Scenario.deployed;
  pool : Par.Pool.t;
  load_s : float;
  deploy_s : float;
}

type out = Scenario.outcome option array

let setup ~tiny ~seed =
  let t0 = Meter.now () in
  ignore (Topology.Datasets.load (if tiny then "Abilene" else "Germany50"));
  let load_s = Meter.now () -. t0 in
  let queries = Gen.robust_queries ~tiny ~seed in
  let t1 = Meter.now () in
  let j =
    Te.Joint.optimize_ctx (Obs.Ctx.make ())
      ~ls_params:{ Te.Local_search.default_params with max_evals = 1500; seed = 1 }
      queries.w_graph queries.w_demands
  in
  let deploy_s = Meter.now () -. t1 in
  let pool = Par.Pool.create ~jobs:domains () in
  { queries; deployed = { weights = j.int_weights; waypoints = j.waypoints }; pool; load_s; deploy_s }

let setup_layers t = [ ("topology.load_s", t.load_s); ("core.deploy_s", t.deploy_s) ]
let close t = Par.Pool.shutdown t.pool
let pass_len t = Array.length t.queries.specs
let pool t = t.pool

let ctx t ~trace =
  if trace then Obs.Ctx.make ~pool:t.pool ~tracer:(Obs.Tracer.create ~cap:1_000_000 ()) ()
  else Obs.Ctx.make ~pool:t.pool ()

let run t ctx ~more =
  let q = t.queries in
  let n = Array.length q.specs in
  let lat = ref [] and res = ref [] and busy = ref 0. in
  let ops =
    Workload.blocks ~block:1 ~more (fun i ->
        let spec = q.specs.(i mod n) in
        let t0 = Meter.now () in
        let x =
          Meter.guarded (Printf.sprintf "robust query %d" spec.id) (fun () ->
              Meter.call ctx "scenario:sweep" (fun () ->
                  (Scenario.sweep_ctx ctx ~policies ~deployed:t.deployed q.w_graph q.w_demands
                     [| spec |]).(0)))
        in
        let dt = Meter.now () -. t0 in
        busy := !busy +. dt;
        lat := dt :: !lat;
        res := x :: !res;
        Calib.tick ())
  in
  ( { Workload.lat = Array.of_list (List.rev !lat); busy = !busy; ops },
    Array.of_list (List.rev !res) )

(* [compare] orders nan equal to itself, unlike [=]. *)
let same (a : out) (b : out) = compare a b = 0

let same_mlu a b = (Float.is_nan a && Float.is_nan b) || Meter.close a b

(* Static outcomes agree with the rebuild oracle (fresh subgraph and
   ECMP state per scenario), and every later pass repeats the first. *)
let check t (out : out) =
  let q = t.queries in
  let n = Array.length q.specs in
  let first = Array.sub out 0 (min n (Array.length out)) in
  let oracle =
    Scenario.static_sweep_rebuild ~deployed:t.deployed q.w_graph q.w_demands
      (Array.sub q.specs 0 (Array.length first))
  in
  Array.iteri
    (fun i o ->
      match o with
      | None -> ()
      | Some (o : Scenario.outcome) ->
        let om, od = oracle.(i) in
        ignore
          (Meter.check
             (Printf.sprintf "robust query %d: static MLU %.17g = rebuild %.17g" i o.static_mlu om)
             (o.static_disconnected = od && same_mlu o.static_mlu om)))
    first;
  Array.iteri
    (fun i o ->
      if i >= n then
        ignore (Meter.check (Printf.sprintf "robust query %d: repeats pass 1" i) (compare o out.(i mod n) = 0)))
    out

let corrupt (out : out) =
  let out = Array.copy out in
  (match out.(0) with
  | Some o -> out.(0) <- Some { o with static_mlu = o.static_mlu *. 1.01 }
  | None -> ());
  out

let ops_per_s (p : Workload.pass) _ =
  Meter.ratio (float_of_int (p.ops * List.length policies)) p.busy

(* Over the first pass: [mlu] is the mean over every reacting (Repair,
   Reweight-8) outcome; [worst_mlu] is the worst scenario after its
   better reaction.  The worse reaction on the worst scenario is one
   greedy re-pick, which swings by half with 10% size noise. *)
let quality (out : out) =
  let all = ref [] and best = ref [] and seen = Hashtbl.create 128 in
  Array.iter
    (function
      | Some (o : Scenario.outcome) when not (Hashtbl.mem seen o.spec.id) ->
        Hashtbl.replace seen o.spec.id ();
        let react =
          List.filter_map
            (fun (p : Scenario.policy_outcome) ->
              if p.policy <> Scenario.Static && Float.is_finite p.mlu then Some p.mlu else None)
            o.policies
        in
        all := react @ !all;
        if react <> [] then best := List.fold_left Float.min infinity react :: !best
      | _ -> ())
    out;
  (Meter.mean !all, List.fold_left Float.max 0. !best)

let layer_metrics _ _ spans =
  let policy p = Meter.outermost_seconds spans (String.equal ("scn:policy:" ^ Scenario.policy_name p)) in
  [
    ("scenario.policy_s.static", policy Scenario.Static);
    ("scenario.policy_s.repair", policy Scenario.Repair);
    ("scenario.policy_s.reweight_8", policy (Scenario.Reweight 8));
  ]

let moves _ _ = []
