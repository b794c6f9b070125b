(* Candidate-pruning smoke: on Germany50 (1) the unpruned greedy's
   exact scan skip must leave out at least 90% of its scans, (2) the
   Prune pass must leave the k = n no-op byte-identical to the unpruned
   greedy, (3) cut the scanned-candidate count by at least 5x at the
   default k while staying within 1% of the unpruned objective, and (4)
   stay bit-identical across pool sizes.  Run with
   `dune build @prune-smoke'. *)

open Te

let mismatches = ref 0

let check name ok =
  if ok then Printf.printf "  ok   %s\n%!" name
  else begin
    incr mismatches;
    Printf.printf "  FAIL %s\n%!" name
  end

let scanned (st : Engine.Stats.t) =
  Array.fold_left ( + ) 0 st.Engine.Stats.worker_evals

let run ?prune ?pool g w demands =
  let stats = Engine.Stats.create () in
  let ctx = Obs.Ctx.make ~stats ?pool () in
  (Greedy_wpo.optimize_ctx ctx ?prune g w demands, stats)

(* (scans run, scans skipped) of one greedy run. *)
let scan_counts g w demands ?prune () =
  let ctx = Obs.Ctx.make () in
  ignore (Greedy_wpo.optimize_ctx ctx ?prune g w demands);
  let get name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.Metrics.counters ctx.Obs.Ctx.metrics))
  in
  (get "wpo.scans", get "wpo.scans_skipped")

let () =
  let g = Topology.Datasets.load "Germany50" in
  let n = Netgraph.Digraph.node_count g in
  (* The Figure 4 demand model (quick-scale parameters): the delta
     acceptance bar is defined against this suite. *)
  let flows = max 2 (Netgraph.Digraph.edge_count g / 16) in
  let demands =
    Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:1 ~flows_per_pair:flows g
  in
  let w = Weights.inverse_capacity g in
  Printf.printf "prune smoke: Germany50, %d demands\n%!" (Array.length demands);
  let base, base_st = run g w demands in
  let scans, skipped = scan_counts g w demands () in
  let skip_frac = float_of_int skipped /. float_of_int (max 1 (scans + skipped)) in
  Printf.printf "  unpruned: %d scans run, %d skipped (%.1f%%)\n%!" scans skipped
    (100. *. skip_frac);
  check "unpruned greedy skips >= 90% of scans" (skip_frac >= 0.9);
  let noop, noop_st = run ~prune:(Prune.spec n) g w demands in
  check "k=n no-op byte-identical"
    (noop.Greedy_wpo.waypoints = base.Greedy_wpo.waypoints
    && noop.Greedy_wpo.mlu = base.Greedy_wpo.mlu);
  check "k=n no-op runs unpruned"
    (scan_counts g w demands ~prune:(Prune.spec n) () = (scans, skipped)
    && noop_st.Engine.Stats.candidates_pruned = 0
    && noop_st.Engine.Stats.candidates_kept = 0
    && scanned noop_st = scanned base_st);
  let pruned, pruned_st = run ~prune:(Prune.spec Prune.default_k) g w demands in
  let reduction =
    float_of_int (scanned base_st) /. float_of_int (max 1 (scanned pruned_st))
  in
  let delta =
    (pruned.Greedy_wpo.mlu -. base.Greedy_wpo.mlu) /. base.Greedy_wpo.mlu
  in
  Printf.printf "  scan reduction %.1fx, objective delta %+.2f%%\n%!" reduction
    (100. *. delta);
  check "scan reduction >= 5x" (reduction >= 5.);
  check "objective delta <= 1%" (delta <= 0.01);
  check "pruning counters populated"
    (pruned_st.Engine.Stats.candidates_pruned > 0
    && pruned_st.Engine.Stats.candidates_kept > 0);
  let par, _ =
    Par.Pool.with_pool ~jobs:4 (fun pool ->
        run ~prune:(Prune.spec Prune.default_k) ~pool g w demands)
  in
  check "pruned jobs 1 = jobs 4"
    (par.Greedy_wpo.waypoints = pruned.Greedy_wpo.waypoints
    && par.Greedy_wpo.mlu = pruned.Greedy_wpo.mlu);
  if !mismatches > 0 then begin
    Printf.printf "prune smoke: %d mismatch(es)\n" !mismatches;
    exit 1
  end;
  print_endline "prune smoke: pruning fast, faithful and deterministic"
