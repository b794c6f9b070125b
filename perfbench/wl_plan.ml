(* plan: a closed loop with one client over the paper's pipeline.  Each
   request scales one generated matrix to OPT-MLU 1 with
   [Demand_gen.scale_to_opt] at the library-default accuracy, solves the
   ECMP-normalized matrix with the registry's "joint" solver, and
   re-evaluates the returned setting from scratch on a fresh
   evaluator. *)

let name = "plan"

type t = {
  requests : Gen.request array;
  solver : Te.Solver.t;
  load_s : float;
}

type res = {
  id : int;
  opt : float;
  scale_ok : bool;  (** scaled sizes x OPT = base sizes *)
  mlu : float;  (** the solver's MLU on the normalized matrix *)
  reeval : float;  (** the same setting evaluated from scratch *)
  weights : int array option;
  waypoints : Te.Segments.setting option;
}

type out = res option array

let setup ~tiny ~seed =
  let t0 = Meter.now () in
  let graphs =
    List.map (fun n -> (n, Topology.Datasets.load n)) (Gen.plan_topologies ~tiny)
  in
  let load_s = Meter.now () -. t0 in
  let requests = Gen.plan_requests ~graph:(fun n -> List.assoc n graphs) ~tiny ~seed in
  let solver =
    (Option.get (Te.Solver.find "joint"))
      { Te.Solver.default_config with evals = (if tiny then 200 else 600); seed = 1 }
  in
  { requests; solver; load_s }

let setup_layers t = [ ("topology.load_s", t.load_s) ]
let close _ = ()
let pass_len t = Array.length t.requests
let pool _ = Par.Pool.sequential

let ctx _ ~trace =
  if trace then Obs.Ctx.make ~tracer:(Obs.Tracer.create ~cap:1_000_000 ()) ()
  else Obs.Ctx.make ()

(* MLU of a solver result evaluated from scratch on a fresh evaluator. *)
let reevaluate ?stats g (s : Te.Solver.result) demands =
  let w =
    match s.weights with
    | Some w -> Te.Weights.of_ints w
    | None -> Te.Weights.inverse_capacity g
  in
  let d = match s.waypoints with Some wp -> Te.Segments.expand demands wp | None -> demands in
  let ev = Engine.Evaluator.create ?stats g w in
  Engine.Evaluator.set_commodities ev (Te.Network.to_commodities d);
  Engine.Evaluator.mlu ev

let request t ctx (r : Gen.request) =
  let g = r.graph in
  let scaled, opt =
    Meter.call ctx
      (if r.lp then "mcf:scale_lp" else "mcf:scale_fptas")
      (fun () -> Te.Demand_gen.scale_to_opt g r.base)
  in
  let scale_ok =
    Array.for_all2
      (fun (s : Te.Network.demand) (b : Te.Network.demand) -> Meter.close (s.size *. opt) b.size)
      scaled r.base
  in
  let s = Meter.call ctx "core:solve" (fun () -> Te.Solver.solve t.solver ctx g r.normalized) in
  let reeval =
    Meter.call ctx "engine:reeval" (fun () ->
        reevaluate ~stats:ctx.Obs.Ctx.stats g s r.normalized)
  in
  { id = r.id; opt; scale_ok; mlu = s.mlu; reeval; weights = s.weights; waypoints = s.waypoints }

let run t ctx ~more =
  let n = Array.length t.requests in
  let lat = ref [] and res = ref [] and busy = ref 0. in
  let ops =
    Workload.blocks ~block:Gen.plan_block ~more (fun i ->
        let r = t.requests.(i mod n) in
        let t0 = Meter.now () in
        let x = Meter.guarded (Printf.sprintf "plan request %d" r.id) (fun () -> request t ctx r) in
        let dt = Meter.now () -. t0 in
        busy := !busy +. dt;
        lat := dt :: !lat;
        res := x :: !res;
        Calib.tick ())
  in
  ( { Workload.lat = Array.of_list (List.rev !lat); busy = !busy; ops },
    Array.of_list (List.rev !res) )

let same (a : out) (b : out) =
  let k = min (Array.length a) (Array.length b) in
  Array.length a = Array.length b && compare (Array.sub a 0 k) (Array.sub b 0 k) = 0

(* Every request is attempted once; it passes when the scaling round
   trips and the returned setting re-evaluates to the reported MLU. *)
let check _ (out : out) =
  Array.iter
    (function
      | None -> ()
      | Some r ->
        ignore
          (Meter.check
             (Printf.sprintf "plan request %d: scaled x OPT = base" r.id)
             r.scale_ok);
        ignore
          (Meter.check
             (Printf.sprintf "plan request %d: re-evaluated MLU %.17g = solver MLU %.17g" r.id
                r.reeval r.mlu)
             (Meter.close r.reeval r.mlu)))
    out

let corrupt (out : out) =
  let out = Array.copy out in
  (match out.(0) with
  | Some r -> out.(0) <- Some { r with mlu = r.mlu *. 0.99 }
  | None -> ());
  out

let ops_per_s (p : Workload.pass) _ = Meter.ratio (float_of_int p.ops) p.busy

let first_pass (out : out) =
  let seen = Hashtbl.create 128 in
  Array.to_list out
  |> List.filter_map (function
       | Some r when not (Hashtbl.mem seen r.id) ->
         Hashtbl.replace seen r.id ();
         Some r
       | _ -> None)

let quality out =
  let mlus = List.map (fun r -> r.mlu) (first_pass out) in
  (Meter.geomean mlus, List.fold_left Float.max 0. mlus)

let layer_metrics t (out : out) _spans =
  (* The exact-LP scalings solve their LP inside [Mcf]; count them as LP
     solves even though no stats handle reaches them. *)
  let lp_scales =
    Array.fold_left
      (fun acc -> function
        | Some r when t.requests.(r.id).Gen.lp -> acc + 1
        | _ -> acc)
      0 out
  in
  [ ("lp.solves", float_of_int lp_scales) ]

let moves _ _ = []
