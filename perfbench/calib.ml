(* Host speed.  The reference host is shared: for seconds to minutes
   at a time it runs everything up to a third faster, and a whole run
   can fall inside such a phase.  A fixed unit of work that owes
   nothing to the libraries -- Dijkstra from six fixed sources over a
   fixed random graph, with a leftist-heap queue and list-built paths,
   so it allocates and chases pointers the way the programs under test
   do -- is timed every half second during a run; its median gives the
   host's speed over the run, and the end-to-end times are reported at
   the reference speed. *)

let nodes = 1000

let graph =
  lazy
    (let st = Random.State.make [| 0xca11b |] in
     Array.init nodes (fun v ->
         List.init 4 (fun _ -> (Random.State.int st nodes, 1. +. Random.State.float st 9.))
         @ [ ((v + 1) mod nodes, 10.) ]))

type heap = Leaf | Node of int * float * int * heap * heap

let rank = function Leaf -> 0 | Node (r, _, _, _, _) -> r

let rec merge a b =
  match (a, b) with
  | Leaf, h | h, Leaf -> h
  | Node (_, ka, va, la, ra), Node (_, kb, _, _, _) ->
    if ka <= kb then
      let m = merge ra b in
      if rank la >= rank m then Node (rank m + 1, ka, va, la, m) else Node (rank la + 1, ka, va, m, la)
    else merge b a

let dijkstra g src =
  let dist = Array.make nodes infinity and pred = Array.make nodes (-1) in
  dist.(src) <- 0.;
  let rec loop h =
    match h with
    | Leaf -> ()
    | Node (_, d, v, l, r) ->
      let h = merge l r in
      if d > dist.(v) then loop h
      else
        loop
          (List.fold_left
             (fun h (w, c) ->
               let nd = d +. c in
               if nd < dist.(w) then begin
                 dist.(w) <- nd;
                 pred.(w) <- v;
                 merge h (Node (1, nd, w, Leaf, Leaf))
               end
               else h)
             h g.(v))
  in
  loop (Node (1, 0., src, Leaf, Leaf));
  let rec path v acc = if v < 0 then acc else path pred.(v) (v :: acc) in
  List.length (path (nodes - 1) []) + int_of_float dist.(nodes / 2)

(* Seconds one unit takes now. *)
let unit () =
  let g = Lazy.force graph in
  let t0 = Meter.now () in
  let check = ref 0 in
  for s = 0 to 5 do
    check := !check + dijkstra g (7 * s)
  done;
  let dt = Meter.now () -. t0 in
  if !check < 0 then nan else dt

(* One unit's seconds on the reference host in its usual (slower)
   phase; only fixes the scale of the normalized figures. *)
let reference = 4e-3

let samples = ref [] and last = ref neg_infinity

let reset () =
  samples := [];
  last := neg_infinity

(* Takes a sample if none was taken in the last half second. *)
let tick () =
  if Meter.now () -. !last >= 0.5 then begin
    samples := unit () :: !samples;
    last := Meter.now ()
  end

(* How much faster than the reference the host ran over the samples
   since [reset]: a time measured now, multiplied by this, reads as it
   would have on the reference host. *)
let speed () = match !samples with [] -> 1. | xs -> reference /. Meter.median xs
