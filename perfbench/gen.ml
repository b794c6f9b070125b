(* The benchmark's own input generator.

   Every traffic *pattern* is a fixed function of the topology name:
   which pairs talk, the gravity masses, the diurnal phases, the flap
   rotation and the failure list never change.  [--seed] draws only the
   sizes laid over that pattern, so two seeds differ by noise, not by a
   different traffic shape.  Nothing here calls the libraries' own
   generators (Demand_gen, Scenario.generate, Scenario.replay_events),
   so a library change cannot change the traffic. *)

open Netgraph

type matrix = Te.Network.demand array

let pattern_rng name salt = Random.State.make [| Hashtbl.hash name; salt |]

let size_rng ~seed ~id salt = Random.State.make [| seed; id; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Mutually reachable ordered pairs of non-stub nodes: a degree-1 node's
   pendant link carries its traffic under every routing and would pin
   every normalized MLU to 1. *)
let backbone_pairs g =
  let n = Digraph.node_count g in
  let core v = Digraph.out_degree g v > 1 in
  let acc = ref [] in
  for s = n - 1 downto 0 do
    if core s then begin
      let r = Paths.reachable g ~source:s in
      for t = n - 1 downto 0 do
        if s <> t && core t && r.(t) then acc := (s, t) :: !acc
      done
    end
  done;
  Array.of_list !acc

(* The first [frac] of a fixed shuffle of the backbone pairs. *)
let pair_pattern name g frac =
  let pairs = backbone_pairs g in
  shuffle (pattern_rng name 1) pairs;
  let k = max 2 (int_of_float (frac *. float_of_int (Array.length pairs))) in
  Array.sub pairs 0 (min k (Array.length pairs))

(* Heavy-tailed (Pareto 1.2) node masses, capped so no single pair owns
   the matrix. *)
let masses name g =
  let st = pattern_rng name 2 in
  Array.init (Digraph.node_count g) (fun _ ->
      Float.min 20. ((1. -. Random.State.float st 0.999) ** (-1. /. 1.2)))

type shape = Uniform | Gravity

let sizes ~seed ~id name g shape pairs =
  let st = size_rng ~seed ~id 3 in
  let mass = match shape with Gravity -> masses name g | Uniform -> [||] in
  Array.map
    (fun (s, t) ->
      let u = Random.State.float st 1. in
      let size =
        match shape with
        | Uniform -> 0.5 +. u
        | Gravity -> mass.(s) *. mass.(t) *. (0.9 +. (0.2 *. u))
      in
      Te.Network.demand s t size)
    pairs

(* MLU of inverse-capacity ECMP routing. *)
let ecmp_mlu g (d : matrix) =
  let ev = Engine.Evaluator.create g (Te.Weights.inverse_capacity g) in
  Engine.Evaluator.set_commodities ev (Te.Network.to_commodities d);
  Engine.Evaluator.mlu ev

(* Rescaled so that inverse-capacity ECMP routes it at MLU exactly 1: a
   solver's MLU on it is its improvement over the default routing, and
   does not depend on how exactly OPT was computed. *)
let normalize g (d : matrix) =
  let u = ecmp_mlu g d in
  Array.map (fun (x : Te.Network.demand) -> { x with size = x.size /. u }) d

(* Which branch [Mcf.opt_mlu] (and so [Demand_gen.scale_to_opt]) takes:
   the exact LP below its default 3000-variable limit, the FPTAS above
   it.  Mirrors the library's dispatch so time can be booked per
   branch. *)
let lp_var_limit = 3000

let takes_lp g (d : matrix) =
  let targets =
    List.sort_uniq Int.compare (Array.to_list (Array.map (fun (x : Te.Network.demand) -> x.dst) d))
  in
  1 + (List.length targets * Digraph.edge_count g) <= lp_var_limit

(* The undirected links of a graph as (edge, reverse edge) pairs, in
   edge-id order of the first direction. *)
let links g =
  let m = Digraph.edge_count g in
  let acc = ref [] in
  for e = m - 1 downto 0 do
    match Digraph.find_edge g ~src:(Digraph.dst g e) ~dst:(Digraph.src g e) with
    | Some r when r > e -> acc := (e, r) :: !acc
    | _ -> ()
  done;
  Array.of_list !acc

(* Does failing both directions of [link] keep every pair connected? *)
let survivable g pairs (e, r) =
  let ev = Engine.Evaluator.create g (Te.Weights.unit g) in
  Engine.Evaluator.disable_edge ev ~edge:e;
  Engine.Evaluator.disable_edge ev ~edge:r;
  Array.for_all (fun (s, t) -> Engine.Evaluator.reachable ev ~src:s ~dst:t) pairs

(* ------------------------------------------------------------------ *)
(* plan                                                                 *)
(* ------------------------------------------------------------------ *)

type request = {
  id : int;
  topo : string;
  graph : Digraph.t;
  base : matrix;  (** what [scale_to_opt] receives *)
  normalized : matrix;  (** what the solver receives *)
  lp : bool;  (** exact-LP scaling branch (else FPTAS) *)
}

(* Four in five requests are small (Abilene, Geant; exact-LP scaling),
   one in five is a fig4-size instance (FPTAS scaling).  The fig4
   instances take 10% of the backbone pairs (Myren 15%, the least that
   keeps it over the LP limit): at the paper's 20% one such request
   costs 0.8-5.6 s and a 100-request pass would not fit a run.  The
   list is interleaved in blocks of five, so every prefix of whole
   blocks has the same mix; the fig4 rotation runs cheapest first, so
   the two extra slots of a 100-request pass go to the cheap ones. *)
let plan_block = 5

let small_kinds =
  [| ("Abilene", 0.2, Uniform); ("Abilene", 1., Gravity); ("Geant", 0.2, Uniform);
     ("Geant", 1., Gravity) |]

let fptas_kinds =
  [| ("Myren", 0.15); ("Cost266", 0.1); ("Janos-US-CA", 0.1); ("Renater2010", 0.1);
     ("Giul39", 0.1); ("Germany50", 0.1) |]

let plan_topologies ~tiny =
  if tiny then [ "Abilene"; "Geant"; "Myren" ]
  else [ "Abilene"; "Geant" ] @ Array.to_list (Array.map fst fptas_kinds)

let plan_requests ~graph ~tiny ~seed =
  let count = if tiny then 10 else 100 in
  let fptas = if tiny then [| fptas_kinds.(0) |] else fptas_kinds in
  Array.init count (fun id ->
      let block = id / plan_block and slot = id mod plan_block in
      let topo, frac, shape =
        if slot = plan_block - 1 then
          let topo, frac = fptas.(block mod Array.length fptas) in
          (topo, frac, Uniform)
        else small_kinds.(slot)
      in
      let g = graph topo in
      let base = sizes ~seed ~id topo g shape (pair_pattern topo g frac) in
      let lp = takes_lp g base in
      (* The branch depends on the pair pattern only, never on the seed. *)
      if lp <> (slot < plan_block - 1) then
        failwith (Printf.sprintf "plan request %d (%s) takes the wrong scaling branch" id topo);
      { id; topo; graph = g; base; normalized = normalize g base; lp })

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

type stream = {
  s_graph : Digraph.t;
  s_base : matrix;  (** the daemon's boot matrix, normalized *)
  events : string array;  (** one pass of [serve/1] request lines *)
}

let serve_topo = "Abilene"

(* One pass: diurnal deltas over a fixed third of the pairs, flash
   crowds on three other pairs, a link flap every 50 events on a
   rotation of links whose loss disconnects no demand, a [resolve] and
   a closing [report] every 50 events.  The resolves (2% of events, a
   few times an update's cost) give the p99 a class of its own to sit
   in, instead of whichever host hiccups hit 1% of the events. *)
let serve_stream ~tiny ~seed =
  let name = serve_topo in
  let g = Topology.Datasets.load name in
  let pairs = pair_pattern name g 1. in
  let np = Array.length pairs in
  let base = normalize g (sizes ~seed ~id:0 name g Gravity pairs) in
  let st = pattern_rng name 4 in
  let order = Array.init np Fun.id in
  shuffle st order;
  let diurnal = Array.sub order 0 (np / 3) in
  let flash = Array.sub order (np / 3) 3 in
  let phase = Array.init (Digraph.node_count g) (fun _ -> Random.State.float st 1.) in
  let flaps = List.filter (survivable g pairs) (Array.to_list (links g)) |> Array.of_list in
  shuffle st flaps;
  let noise = size_rng ~seed ~id:1 5 in
  let n_events = if tiny then 100 else 1000 in
  let change i f =
    let d = base.(i) in
    Printf.sprintf "{\"src\":%d,\"dst\":%d,\"size\":%.9g}" d.src d.dst (d.size *. f)
  in
  let delta changes = Printf.sprintf "{\"ev\":\"delta\",\"changes\":[%s]}" (String.concat "," changes) in
  let link ev (e, r) = Printf.sprintf "{\"ev\":\"%s\",\"edges\":[%d,%d]}" ev e r in
  let events =
    Array.init n_events (fun k ->
        let period = k / 50 and slot = k mod 50 in
        let flap = flaps.(period mod Array.length flaps) in
        match slot with
        | 49 -> "{\"ev\":\"report\"}"
        | 40 -> "{\"ev\":\"resolve\"}"
        | 20 -> link "link-down" flap
        | 35 -> link "link-up" flap
        | 5 -> delta (Array.to_list (Array.map (fun i -> change i 3.) flash))
        | 15 -> delta (Array.to_list (Array.map (fun i -> change i 1.) flash))
        | _ ->
          let t = 2. *. float_of_int k /. float_of_int n_events in
          delta
            (Array.to_list
               (Array.map
                  (fun i ->
                    let d = base.(i) in
                    let level = sin (2. *. Float.pi *. (t +. phase.(d.src))) in
                    change i ((1. +. (0.35 *. level)) *. (0.95 +. Random.State.float noise 0.1)))
                  diurnal)))
  in
  { s_graph = g; s_base = base; events }

(* ------------------------------------------------------------------ *)
(* robust                                                               *)
(* ------------------------------------------------------------------ *)

type whatif = {
  w_graph : Digraph.t;
  w_demands : matrix;  (** normalized *)
  specs : Scenario.spec array;  (** one pass, in query order *)
}

(* Every paired single-link failure, sampled dual failures, and jitter,
   hotspot and diurnal shifts; ids are the query order, a fixed
   shuffle that keeps any long prefix representative. *)
let robust_queries ~tiny ~seed =
  let name = if tiny then "Abilene" else "Germany50" in
  let g = Topology.Datasets.load name in
  let pairs = pair_pattern name g 0.2 in
  let demands = normalize g (sizes ~seed ~id:0 name g Gravity pairs) in
  let st = pattern_rng name 6 in
  let ls = links g in
  let nl = Array.length ls in
  let singles = Array.to_list (Array.map (fun (e, r) -> ([ e; r ], Scenario.No_shift)) ls) in
  let duals =
    List.init (if tiny then 2 else 12) (fun _ ->
        let a = Random.State.int st nl in
        let b = (a + 1 + Random.State.int st (nl - 1)) mod nl in
        let e1, r1 = ls.(a) and e2, r2 = ls.(b) in
        (List.sort Int.compare [ e1; r1; e2; r2 ], Scenario.No_shift))
  in
  let k = if tiny then 1 else 4 in
  let shifts =
    List.init k (fun i -> ([], Scenario.Jitter { seed = 101 + i; sigma = 0.25 }))
    @ List.init k (fun i -> ([], Scenario.Hotspot { seed = 201 + i; pairs = 3; factor = 3. }))
    @ List.init k (fun i ->
          ([], Scenario.Diurnal { level = (float_of_int i +. 0.5) /. float_of_int k }))
  in
  let all = Array.of_list (singles @ duals @ shifts) in
  shuffle st all;
  let all = if tiny then Array.sub all 0 (min 12 (Array.length all)) else all in
  let specs = Array.mapi (fun id (failed, shift) -> { Scenario.id; failed; shift }) all in
  { w_graph = g; w_demands = demands; specs }
