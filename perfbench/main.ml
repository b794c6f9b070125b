(* The repository benchmark.

     main.exe --workload plan|serve|robust --seed N --seconds S --trace 0|1
     main.exe --self-check

   With [--trace 0] it times the workload's set-up several times, runs
   the workload for [S] seconds (and at least one pass of its fixed
   list), checks every output and prints the end-to-end metrics.  With
   [--trace 1] it runs the workload once untraced for [S/2] seconds (and
   at least one pass) and once more, over the same operations, with a
   live tracer, and prints the per-layer metrics.  The last line of
   stdout is one JSON object: {"correct", "attempted", "failed",
   "metrics"}. *)

let workloads : (string * (module Workload.S)) list =
  [ ("plan", (module Wl_plan)); ("serve", (module Wl_serve)); ("robust", (module Wl_robust)) ]

let end_to_end_units =
  [ ("setup_s", "s"); ("p50_ms", "ms"); ("p90_ms", "ms"); ("p99_ms", "ms");
    ("ops_per_s", "1/s"); ("mlu", "ratio"); ("worst_mlu", "ratio"); ("ok_frac", "ratio");
    ("peak_heap_mb", "MB") ]

let per_layer_units =
  [ ("topology.load_s", "s");
    ("mcf.lp_scale_s", "s"); ("mcf.fptas_scale_s", "s"); ("mcf.scale_share", "ratio");
    ("lp.solves", "count"); ("lp.pivots", "count"); ("lp.warm_solves", "count");
    ("engine.evaluations", "count"); ("engine.evals_per_s", "1/s");
    ("engine.full_spf", "count"); ("engine.incr_spf", "count");
    ("engine.spf_nodes_touched", "count"); ("engine.spf_incr_s", "s");
    ("engine.units_s", "s"); ("engine.loads_s", "s");
    ("engine.unit_hit_ratio", "ratio"); ("engine.dag_hit_ratio", "ratio");
    ("engine.clone_syncs", "count"); ("engine.clone_copies", "count");
    ("core.solve_s", "s"); ("core.deploy_s", "s"); ("ls.accept_ratio", "ratio");
    ("wpo.kept_ratio", "ratio");
    ("scenario.cases", "count"); ("scenario.policy_s.static", "s");
    ("scenario.policy_s.repair", "s"); ("scenario.policy_s.reweight_8", "s");
    ("par.tasks", "count"); ("par.steals", "count"); ("par.parks", "count");
    ("par.park_s", "s"); ("par.efficiency", "ratio");
    ("serve.handle_p50_ms", "ms"); ("serve.handle_p99_ms", "ms"); ("serve.wait_p99_ms", "ms");
    ("serve.parse_s", "s"); ("serve.create_s", "s"); ("serve.improved", "count");
    ("serve.degraded", "count"); ("serve.churn", "count");
    ("obs.trace_overhead", "ratio"); ("obs.spans", "count"); ("obs.spans_dropped", "count");
    ("bench.layer_coverage", "ratio"); ("bench.gen_late_ms", "ms"); ("bench.host_speed", "ratio") ]
  @ List.map (fun l -> ("layer." ^ l ^ ".self_s", "s")) Meter.layers

(* Every named metric, in order; values not produced are 0. *)
let assemble units values =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0. (List.assoc_opt name values)))
    units

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                       *)
(* ------------------------------------------------------------------ *)

(* One untimed warm-up set-up, then as many timed ones as fit in about
   two seconds (5 to 15; 1 on tiny inputs), each after a full major GC
   and outside any other timed region, and each followed by a host-speed
   sample.  Returns the last instance, the median time and the host
   speed over the set-ups. *)
let timed_setups ~tiny ~setup ~close =
  let timed () =
    Meter.settle ();
    let t0 = Meter.now () in
    let w = setup () in
    (w, Meter.now () -. t0)
  in
  let w0, first = timed () in
  let reps = if tiny then 1 else max 5 (min 15 (int_of_float (2. /. Float.max first 1e-3))) in
  let last = ref w0 and times = ref [] and units = ref [] in
  for _ = 1 to reps do
    close !last;
    let w, dt = timed () in
    times := dt :: !times;
    units := Calib.unit () :: !units;
    last := w
  done;
  (!last, Meter.median !times, Calib.reference /. Meter.median !units)

let end_to_end (module W : Workload.S) ~tiny ~seed ~seconds =
  let w, setup_s, setup_speed =
    timed_setups ~tiny ~setup:(fun () -> W.setup ~tiny ~seed) ~close:W.close
  in
  Calib.reset ();
  Meter.settle ();
  let ctx = W.ctx w ~trace:false in
  let t0 = Meter.now () in
  let pass, out =
    W.run w ctx ~more:(fun ops -> ops < W.pass_len w || Meter.now () -. t0 < seconds)
  in
  W.check w out;
  let mlu, worst = W.quality out in
  let n = Array.length pass.lat in
  let ms q = 1000. *. Meter.quantile pass.lat q in
  let heap = peak_heap_mb () in
  W.close w;
  let speed = Calib.speed () and ops_per_s = W.ops_per_s pass out in
  Printf.eprintf
    "%s: %d operations in %.1f s (%.1f s busy); host speed %.3f (set-up %.3f); as measured: \
     setup_s %.6g p50_ms %.6g p90_ms %.6g p99_ms %.6g ops_per_s %.6g\n%!"
    W.name pass.ops (Meter.now () -. t0) pass.busy speed setup_speed setup_s (ms 0.5) (ms 0.9)
    (ms (Meter.tail_q n)) ops_per_s;
  (* Times at the reference host speed, see [Calib]. *)
  assemble end_to_end_units
    [ ("setup_s", setup_s *. setup_speed); ("p50_ms", ms 0.5 *. speed); ("p90_ms", ms 0.9 *. speed);
      ("p99_ms", ms (Meter.tail_q n) *. speed); ("ops_per_s", ops_per_s /. speed);
      ("mlu", mlu); ("worst_mlu", worst);
      ("ok_frac", Meter.ratio (float_of_int (Meter.tally.attempted - Meter.tally.failed))
                    (float_of_int Meter.tally.attempted));
      ("peak_heap_mb", heap) ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

let trace_dir = ref ".bench_out"

let counter metrics name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters metrics)))

let per_layer (module W : Workload.S) ~tiny ~seed ~seconds =
  Calib.reset ();
  Meter.settle ();
  let w = W.setup ~tiny ~seed in
  Meter.settle ();
  let t0 = Meter.now () in
  let pu, ou =
    W.run w (W.ctx w ~trace:false) ~more:(fun ops ->
        ops < W.pass_len w || Meter.now () -. t0 < seconds /. 2.)
  in
  Meter.settle ();
  let ctx = W.ctx w ~trace:true in
  let pm0 = Par.Pool.metrics (W.pool w) in
  let pt, ot = W.run w ctx ~more:(fun ops -> ops < pu.ops) in
  let pm1 = Par.Pool.metrics (W.pool w) in
  ignore (Meter.check "traced and untraced passes give identical results" (W.same ou ot));
  W.check w ot;
  let tr = ctx.Obs.Ctx.tracer in
  let spans = Obs.Tracer.spans tr in
  let self_times = Meter.attribute ~moves:W.moves spans in
  let self l = Option.value ~default:0. (List.assoc_opt l self_times) in
  let s = ctx.Obs.Ctx.stats in
  let hot = Engine.Stats.hot_times s in
  let c = counter ctx.Obs.Ctx.metrics in
  let i = float_of_int in
  let named name = Meter.outermost_seconds spans (String.equal name) in
  let lp_scale = named "mcf:scale_lp" and fptas_scale = named "mcf:scale_fptas" in
  let jobs = float_of_int (Par.Pool.jobs (W.pool w)) in
  let generic =
    [ ("mcf.lp_scale_s", lp_scale); ("mcf.fptas_scale_s", fptas_scale);
      ("mcf.scale_share", Meter.ratio (lp_scale +. fptas_scale) pt.busy);
      ("lp.solves", i s.lp_solves); ("lp.pivots", i s.lp_pivots);
      ("lp.warm_solves", i s.lp_warm_solves);
      ("engine.evaluations", i s.evaluations);
      ("engine.evals_per_s", Meter.ratio (i s.evaluations) (self "engine"));
      ("engine.full_spf", i s.full_spf); ("engine.incr_spf", i s.incr_spf);
      ("engine.spf_nodes_touched", i s.spf_nodes_touched);
      ("engine.spf_incr_s", hot.(Engine.Stats.hot_spf_incr));
      ("engine.units_s", hot.(Engine.Stats.hot_units));
      ("engine.loads_s", hot.(Engine.Stats.hot_loads));
      ("engine.unit_hit_ratio", Meter.ratio (i s.unit_hits) (i (s.unit_hits + s.unit_misses)));
      ("engine.dag_hit_ratio", Meter.ratio (i s.dag_hits) (i (s.dag_hits + s.dag_misses)));
      ("engine.clone_syncs", i s.clone_syncs); ("engine.clone_copies", i s.clone_copies);
      ("core.solve_s", Meter.outermost_seconds spans (fun n -> Meter.layer_of_name n = Some "core"));
      ("ls.accept_ratio", Meter.ratio (c "ls.accepted") (c "ls.rounds"));
      ("wpo.kept_ratio",
        Meter.ratio (i s.candidates_kept) (i (s.candidates_kept + s.candidates_pruned)));
      ("scenario.cases", c "scn.cases");
      ("par.tasks", i (pm1.tasks - pm0.tasks)); ("par.steals", i (pm1.steals - pm0.steals));
      ("par.parks", i (pm1.parks - pm0.parks));
      ("par.park_s", pm1.park_seconds -. pm0.park_seconds);
      (* Share of the pool's domain-seconds not spent parked; 0 without
         a pool. *)
      ("par.efficiency",
        if jobs > 1. then
          1. -. Meter.ratio (pm1.park_seconds -. pm0.park_seconds) (jobs *. pt.busy)
        else 0.);
      ("obs.trace_overhead", Meter.ratio pt.busy pu.busy -. 1.);
      ("obs.spans", i (Obs.Tracer.span_count tr)); ("obs.spans_dropped", i (Obs.Tracer.dropped tr));
      ("bench.host_speed", Calib.speed ());
      ("bench.layer_coverage",
        Meter.ratio (List.fold_left (fun acc l -> acc +. self l) 0. Meter.layers) pt.busy) ]
    @ List.map (fun l -> ("layer." ^ l ^ ".self_s", self l)) Meter.layers
  in
  ignore
    (Meter.check "layer self times cover at least 90% of the traced pass"
       (List.assoc "bench.layer_coverage" generic >= 0.9));
  (* Workload metrics add to the generic ones of the same name. *)
  let extra = W.setup_layers w @ W.layer_metrics w ot spans in
  let values =
    List.map
      (fun (n, v) -> (n, v +. List.fold_left (fun acc (m, x) -> if m = n then acc +. x else acc) 0. extra))
      generic
    @ List.filter (fun (n, _) -> not (List.mem_assoc n generic)) extra
  in
  (try
     if not (Sys.file_exists !trace_dir) then Sys.mkdir !trace_dir 0o755;
     let path = Filename.concat !trace_dir (Printf.sprintf "%s-seed%d.jsonl" W.name seed) in
     Obs.Export.write_trace ~path tr;
     Printf.eprintf "%s: trace written to %s\n%!" W.name path
   with Sys_error e -> Printf.eprintf "%s: trace not written: %s\n%!" W.name e);
  Printf.eprintf "%s: %d operations untraced (%.2f s busy), traced (%.2f s busy)\n%!" W.name
    pu.ops pu.busy pt.busy;
  W.close w;
  (* For the self-check: re-run the checks on a corrupted copy. *)
  (assemble per_layer_units values, fun () -> W.check w (W.corrupt ot))

(* ------------------------------------------------------------------ *)
(* Self-check                                                           *)
(* ------------------------------------------------------------------ *)

(* Tiny inputs, a few seconds: every workload's end-to-end and traced
   flows with all their checks, then one deliberately corrupted result
   per workload, which the checks must count as failed. *)
let self_check () =
  let ok = ref true in
  List.iter
    (fun (name, (module W : Workload.S)) ->
      Meter.tally.attempted <- 0;
      Meter.tally.failed <- 0;
      ignore (end_to_end (module W) ~tiny:true ~seed:1 ~seconds:1.);
      let _, check_corrupted = per_layer (module W) ~tiny:true ~seed:1 ~seconds:1. in
      let clean = Meter.tally.failed = 0 in
      let attempted = Meter.tally.attempted in
      let before = Meter.tally.failed in
      check_corrupted ();
      let caught = Meter.tally.failed > before in
      Printf.printf "self-check %-6s %5d checks, %s; corrupted result %s\n%!" name attempted
        (if clean then "all passed" else Printf.sprintf "%d FAILED" before)
        (if caught then "counted as failed" else "NOT DETECTED");
      if not (clean && caught) then ok := false)
    workloads;
  Printf.printf "{\"self_check\": %b}\n" !ok;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 35. and trace = ref 0 in
  let check_only = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME plan | serve | robust");
      ("--seed", Arg.Set_int seed, "N input seed (sizes only)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where traced runs write trace/1 JSONL");
      ("--self-check", Arg.Set check_only, " quick check of every workload's checks") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  if !check_only then self_check ();
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline "perfbench: --workload must be plan, serve or robust";
    exit 2
  | Some w ->
    let metrics =
      if !trace = 0 then end_to_end w ~tiny:false ~seed:!seed ~seconds:!seconds
      else fst (per_layer w ~tiny:false ~seed:!seed ~seconds:!seconds)
    in
    print_endline (Meter.result_line metrics)
