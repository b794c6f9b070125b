(* Measurement helpers shared by the workloads: clock, GC hygiene,
   percentiles, output checks, benchmark-side spans around library
   calls, and the per-layer self-time attribution of a traced pass. *)

let now = Engine.Mono.now

(* A full major collection before every timed region, outside it, so a
   region never pays for garbage left by the previous one. *)
let settle () = Gc.full_major ()

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile. *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The highest of p99 / p90 / p50 with at least ten samples beyond it:
   no percentile is read off fewer than ten tail samples. *)
let tail_q n =
  if float_of_int n *. 0.01 >= 10. then 0.99
  else if float_of_int n *. 0.1 >= 10. then 0.9
  else 0.5

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b > 0. then a /. b else 0.

let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b)

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

(* Every operation and every check counts once in [attempted]; an
   exception or a wrong result counts once in [failed]. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end;
  ok

(* Runs one operation, counted as attempted; an exception is a failed
   operation, not a crashed run. *)
let guarded what f =
  match f () with
  | r ->
    tally.attempted <- tally.attempted + 1;
    Some r
  | exception e ->
    ignore (check (what ^ ": " ^ Printexc.to_string e) false);
    None

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans                                                 *)
(* ------------------------------------------------------------------ *)

let engine_seconds (s : Engine.Stats.t) =
  Array.fold_left ( +. ) 0. (Engine.Stats.hot_times s)

(* [call ctx "layer:what" f] times one call into a library layer as a
   root span.  The evaluator seconds the call accumulated in the
   context's stats ride along as an ["engine_s"] attribute, so
   attribution can move them out of the calling layer; [attrs] adds
   attributes computed from the call's result.  With tracing off this
   is just [f ()]. *)
let call (ctx : Obs.Ctx.t) ?(attrs = fun _ -> []) name f =
  let tr = ctx.Obs.Ctx.tracer in
  if not (Obs.Tracer.enabled tr) then f ()
  else begin
    let e0 = engine_seconds ctx.Obs.Ctx.stats in
    let tok = Obs.Tracer.start tr name in
    match f () with
    | r ->
      Obs.Tracer.attr tr tok
        (Obs.Attr.float "engine_s" (engine_seconds ctx.Obs.Ctx.stats -. e0));
      List.iter (Obs.Tracer.attr tr tok) (attrs r);
      Obs.Tracer.finish tr tok;
      r
    | exception ex ->
      Obs.Tracer.finish tr tok;
      raise ex
  end

let float_attr (s : Obs.Span.t) key =
  match List.assoc_opt key s.attrs with Some (Obs.Attr.Float v) -> Some v | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-layer attribution                                                *)
(* ------------------------------------------------------------------ *)

let layers = [ "mcf"; "lp"; "engine"; "core"; "scenario"; "serve" ]

(* Span-name prefix -> layer (module).  Names the benchmark records are
   ["<layer>:<call>"]; the rest are the libraries' own spans. *)
let layer_of_name name =
  let prefix =
    match String.index_opt name ':' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match prefix with
  | "mcf" -> Some "mcf"
  | "lp" | "milp" -> Some "lp"
  | "engine" | "ev" -> Some "engine"
  | "core" | "joint" | "reopt" | "ls" | "wpo" | "grad" | "omw" | "lwo"
  | "exact" | "prune" ->
    Some "core"
  | "scenario" | "scn" -> Some "scenario"
  | "serve" -> Some "serve"
  | "topology" -> Some "topology"
  | _ -> None

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Self time of a span is its duration minus its children's.  Each root
   span is one benchmark call of wall time [w].  Its subtree's self
   times are summed per layer (a span of unknown name inherits its
   parent's layer).  The call's evaluator seconds (["engine_s"]) are
   then taken out of the layers that drive the evaluator, in proportion
   to their self time, and given to [engine]; [moves root kids] names
   further (from, to, seconds) shifts a workload knows about.  Last the
   layers are scaled to sum to [w]: under a worker pool a subtree holds
   more busy seconds than wall seconds, and the layers share the wall in
   proportion to their busy time.  Returns wall seconds per layer. *)
let attribute ?(moves = fun _ _ -> []) (spans : Obs.Span.t list) =
  let spans = Array.of_list spans in
  let n = Array.length spans in
  let child_dur = Array.make n 0. and kids = Array.make n [] in
  Array.iter
    (fun (s : Obs.Span.t) ->
      if s.parent >= 0 then begin
        child_dur.(s.parent) <- child_dur.(s.parent) +. Float.max 0. s.dur;
        kids.(s.parent) <- s :: kids.(s.parent)
      end)
    spans;
  let layer = Array.make n "bench" and root = Array.make n (-1) in
  let per_root = Hashtbl.create 64 in
  (* Ids are dense and every parent precedes its children. *)
  Array.iter
    (fun (s : Obs.Span.t) ->
      let i = s.id in
      root.(i) <- (if s.parent < 0 then i else root.(s.parent));
      layer.(i) <-
        (match layer_of_name s.name with
        | Some l -> l
        | None -> if s.parent < 0 then "bench" else layer.(s.parent));
      let tbl =
        match Hashtbl.find_opt per_root root.(i) with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.replace per_root root.(i) t;
          t
      in
      bump tbl layer.(i) (Float.max 0. (Float.max 0. s.dur -. child_dur.(i))))
    spans;
  let total = Hashtbl.create 8 in
  Hashtbl.iter
    (fun r tbl ->
      let s = spans.(r) in
      let get l = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
      let engine = Option.value ~default:0. (float_attr s "engine_s") in
      let callers = [ "core"; "scenario"; "serve" ] in
      let pool = List.fold_left (fun acc l -> acc +. get l) 0. callers in
      let moved = Float.min engine pool in
      if moved > 0. then begin
        List.iter (fun l -> Hashtbl.replace tbl l (get l -. (moved *. get l /. pool))) callers;
        bump tbl "engine" moved
      end;
      List.iter
        (fun (src, dst, v) ->
          let v = Float.min v (get src) in
          if v > 0. then begin
            Hashtbl.replace tbl src (get src -. v);
            bump tbl dst v
          end)
        (moves s kids.(r));
      let w = Float.max 0. s.dur in
      let sum = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0. in
      let scale = if sum > 0. then w /. sum else 0. in
      Hashtbl.iter (fun l v -> bump total l (v *. scale)) tbl)
    per_root;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) total []

(* Inclusive seconds of the outermost spans whose name satisfies [p]
   (a matching span nested in another matching span is not counted
   twice). *)
let outermost_seconds (spans : Obs.Span.t list) p =
  let spans = Array.of_list spans in
  let inside = Array.make (Array.length spans) false in
  let acc = ref 0. in
  Array.iter
    (fun (s : Obs.Span.t) ->
      let parent_inside = s.parent >= 0 && inside.(s.parent) in
      let m = p s.name in
      inside.(s.id) <- parent_inside || m;
      if m && not parent_inside then acc := !acc +. Float.max 0. s.dur)
    spans;
  !acc

(* ------------------------------------------------------------------ *)
(* Result line                                                          *)
(* ------------------------------------------------------------------ *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0) (max 1 tally.attempted) tally.failed body
