(* serve: an open loop.  A generated stream of events goes into
   [Serve.Daemon.handle_line] on Abilene at a fixed rate of about half
   the daemon's closed-loop capacity; every pass of the stream starts a
   fresh daemon.  The deadline and response timings are off, so the
   responses are deterministic.  Latency runs from each event's due
   time, so a stall also charges the events queued behind it. *)

let name = "serve"

(* Events per second.  The daemon handles about 150 a second on one
   core of a 2-core host; a slow host phase at twice the rate would
   saturate it and the tail would measure the host, not the daemon. *)
let rate = 40.

let block = 50

type t = {
  stream : Gen.stream;
  weights : int array;
  waypoints : Te.Segments.setting;
  load_s : float;
  deploy_s : float;
  create_s : float;
}

type out = {
  responses : string option array;  (** per event, in operation order *)
  daemons : Serve.Daemon.t list;  (** one per pass, in order *)
  handle : float array;  (** seconds inside [handle_line], per event *)
  wait : float array;  (** start - due, per event *)
  gen_late : float array;
      (** how late the generator issued an event it was not queueing *)
  n_events : int;
}

let config =
  { Serve.Daemon.default_config with
    deadline_ms = -1.; timings = false; resolve_evals = 2000; seed = 1 }

let daemon t ctx =
  Serve.Daemon.create ctx config ~deployed_weights:t.weights ~deployed_waypoints:t.waypoints
    t.stream.s_graph t.stream.s_base

let setup ~tiny ~seed =
  let t0 = Meter.now () in
  ignore (Topology.Datasets.load Gen.serve_topo);
  let load_s = Meter.now () -. t0 in
  let stream = Gen.serve_stream ~tiny ~seed in
  let t1 = Meter.now () in
  let j =
    Te.Joint.optimize_ctx (Obs.Ctx.make ())
      ~ls_params:{ Te.Local_search.default_params with max_evals = 1500; seed = 1 }
      stream.s_graph stream.s_base
  in
  let t2 = Meter.now () in
  let t = { stream; weights = j.int_weights; waypoints = j.waypoints; load_s; deploy_s = t2 -. t1; create_s = 0. } in
  ignore (daemon t (Obs.Ctx.make ()));
  { t with create_s = Meter.now () -. t2 }

let setup_layers t =
  [ ("topology.load_s", t.load_s); ("core.deploy_s", t.deploy_s); ("serve.create_s", t.create_s) ]

let close _ = ()
let pass_len t = Array.length t.stream.events
let pool _ = Par.Pool.sequential

let ctx _ ~trace =
  if trace then Obs.Ctx.make ~tracer:(Obs.Tracer.create ~cap:1_000_000 ()) ()
  else Obs.Ctx.make ()

let run t ctx ~more =
  let events = t.stream.events in
  let n = Array.length events in
  let cap = 1 + int_of_float (rate *. 200.) in
  let responses = Array.make cap None in
  let lat = Array.make cap 0. and handle = Array.make cap 0. in
  let wait = Array.make cap 0. and gen_late = Array.make cap 0. in
  let daemons = ref [] in
  let d = ref (daemon t ctx) in
  daemons := [ !d ];
  (* The daemon's own update clock, read only when tracing: the time a
     traced update spends past it is the LP readout. *)
  let seen = ref 0 in
  let daemon_dt d =
    let s = Serve.Daemon.summary d in
    if s.updates > !seen then begin
      seen := s.updates;
      [ Obs.Attr.float "daemon_dt" s.latencies.(s.updates - 1) ]
    end
    else []
  in
  let busy = ref 0. and prev_end = ref 0. in
  let start = Meter.now () in
  let ops =
    Workload.blocks ~block ~more (fun i ->
        if i >= cap then failwith "serve: event log full";
        let k = i mod n in
        if k = 0 && i > 0 then begin
          d := Meter.call ctx "serve:create" (fun () -> daemon t ctx);
          daemons := !d :: !daemons;
          seen := 0
        end;
        let due = start +. (float_of_int i /. rate) in
        let ready = Float.max due !prev_end in
        (* Spin rather than sleep: a sleeping process wakes on a cold
           core, and that wake-up noise would swamp the daemon's tail.
           Idle time well before the due time samples the host speed. *)
        while Meter.now () < due do
          if due -. Meter.now () > 0.015 then Calib.tick () else Domain.cpu_relax ()
        done;
        let s = Meter.now () in
        let dm = !d in
        responses.(i) <-
          Meter.guarded (Printf.sprintf "serve event %d" i) (fun () ->
              Meter.call ctx "serve:handle" ~attrs:(fun _ -> daemon_dt dm) (fun () ->
                  Serve.Daemon.handle_line dm events.(k)))
          |> Option.join;
        let e = Meter.now () in
        prev_end := e;
        lat.(i) <- e -. due;
        handle.(i) <- e -. s;
        wait.(i) <- s -. due;
        gen_late.(i) <- Float.max 0. (s -. ready);
        busy := !busy +. (e -. s))
  in
  ( { Workload.lat = Array.sub lat 0 ops; busy = !busy; ops },
    {
      responses = Array.sub responses 0 ops;
      daemons = List.rev !daemons;
      handle = Array.sub handle 0 ops;
      wait = Array.sub wait 0 ops;
      gen_late = Array.sub gen_late 0 ops;
      n_events = n;
    } )

let same a b = a.responses = b.responses

let parse r = Option.bind r (fun r -> Result.to_option (Serve.Sjson.parse r))

let member k j = Option.bind j (Serve.Sjson.member k)
let num k j = Option.bind (member k j) Serve.Sjson.to_float
let str k j = Option.bind (member k j) Serve.Sjson.to_string

let is_update ev = ev <> Some "report" && ev <> Some "quit"

(* MLU of a daemon's incumbent evaluated from scratch.  Passes end on a
   block boundary, where every flapped link is back up. *)
let fresh_mlu g d =
  let weights, demands, setting = Serve.Daemon.state d in
  if Array.length demands = 0 then 0.
  else begin
    let ev = Engine.Evaluator.create g (Te.Weights.of_ints weights) in
    Engine.Evaluator.set_commodities ev
      (Te.Network.to_commodities (Te.Segments.expand demands setting));
    Engine.Evaluator.mlu ev
  end

(* Every response is strict [serve/1] with the expected sequence number
   and status ok, no update raises the MLU it started from, each pass
   repeats the first byte for byte, and every daemon's final incumbent
   matches a fresh evaluation. *)
let check t out =
  Array.iteri
    (fun i r ->
      let k = i mod out.n_events in
      let j = parse r in
      let what = Printf.sprintf "serve event %d" i in
      let ok =
        str "schema" j = Some "serve/1"
        && num "seq" j = Some (float_of_int k)
        && str "status" j = Some "ok"
        && member "latency_ms" j = None
        &&
        match (num "mlu_before" j, num "mlu_after" j) with
        | Some b, Some a -> a <= b +. 1e-12
        | _ -> not (is_update (str "event" j))
      in
      ignore (Meter.check (what ^ ": strict serve/1 response") ok);
      if i >= out.n_events then
        ignore (Meter.check (what ^ ": repeats pass 1") (r = out.responses.(k))))
    out.responses;
  List.iteri
    (fun p d ->
      let fresh = fresh_mlu t.stream.s_graph d in
      ignore
        (Meter.check
           (Printf.sprintf "serve pass %d: incumbent MLU %.17g = fresh %.17g" p
              (Serve.Daemon.mlu d) fresh)
           (Meter.close (Serve.Daemon.mlu d) fresh)))
    out.daemons

(* A truncated response is no longer valid JSON. *)
let corrupt out =
  let responses = Array.copy out.responses in
  responses.(0) <- Option.map (fun r -> String.sub r 0 (String.length r - 1)) responses.(0);
  { out with responses }

let ops_per_s _ out =
  let n = ref 0 and busy = ref 0. in
  Array.iteri
    (fun i r ->
      if is_update (str "event" (parse r)) then begin
        incr n;
        busy := !busy +. out.handle.(i)
      end)
    out.responses;
  Meter.ratio (float_of_int !n) !busy

let quality out =
  let k = min out.n_events (Array.length out.responses) in
  let mlus =
    List.filter_map (fun r -> num "mlu_after" (parse r)) (Array.to_list (Array.sub out.responses 0 k))
  in
  (Meter.mean mlus, List.fold_left Float.max 0. mlus)

let layer_metrics t out _spans =
  let sum f = List.fold_left (fun acc d -> acc + f (Serve.Daemon.summary d)) 0 out.daemons in
  let lines = t.stream.events in
  let t0 = Meter.now () in
  Array.iter (fun l -> ignore (Serve.Event.parse t.stream.s_graph l)) lines;
  let parse_s = Meter.now () -. t0 in
  [
    ("serve.handle_p50_ms", 1000. *. Meter.quantile out.handle 0.5);
    ("serve.handle_p99_ms", 1000. *. Meter.quantile out.handle (Meter.tail_q (Array.length out.handle)));
    ("serve.wait_p99_ms", 1000. *. Meter.quantile out.wait (Meter.tail_q (Array.length out.wait)));
    ("serve.parse_s", parse_s);
    ("serve.improved", float_of_int (sum (fun s -> s.improved)));
    ("serve.degraded", float_of_int (sum (fun s -> s.degraded)));
    ("serve.churn", float_of_int (sum (fun s -> s.weight_churn_total + s.waypoint_churn_total)));
    ("bench.gen_late_ms", 1000. *. Meter.mean (Array.to_list out.gen_late));
  ]

(* A traced update spends past the daemon's own clock only on the LP
   readout (and rendering the response). *)
let moves (root : Obs.Span.t) (kids : Obs.Span.t list) =
  match
    (Meter.float_attr root "daemon_dt", List.find_opt (fun (k : Obs.Span.t) -> k.name = "serve:update") kids)
  with
  | Some dt, Some u -> [ ("serve", "lp", u.dur -. dt) ]
  | _ -> []
