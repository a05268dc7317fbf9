(* Seeded inputs and the sequential SSSP oracle.

   The generator is the benchmark's own SplitMix64, not the library's
   [Prng], so a change to the library cannot change the inputs. *)

type rng = { mutable s : int64 }

let rng seed stream =
  { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int stream)) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let mix z k s = Int64.(mul (logxor z (shift_right_logical z s)) k) in
  let z = mix z 0xBF58476D1CE4E5B9L 30 in
  let z = mix z 0x94D049BB133111EBL 27 in
  Int64.(logxor z (shift_right_logical z 31))

(* Uniform in [0, bound), bound <= 2^62. *)
let below r bound =
  Int64.(to_int (rem (shift_right_logical (next r) 1) (of_int bound)))

let uniform seed ~stream ~n ~bound =
  let r = rng seed stream in
  Array.init n (fun _ -> below r bound)

(* --- grid graph ------------------------------------------------------ *)

(* An [side]×[side] 4-neighbour grid. [w.(4v + dir)] is the weight of
   the edge from [v] towards [dir] (right, down, left, up), or 0 where
   the grid ends. Vertices fit in the low [vertex_bits] of a packed key
   [(dist lsl vertex_bits) lor v]. *)
type grid = { side : int; w : int array; edges : int }

let vertex_bits = 20
let vertex_mask = (1 lsl vertex_bits) - 1
let max_weight = 1000

let grid seed ~side =
  if side * side > vertex_mask then invalid_arg "Inputs.grid: side too large";
  let r = rng seed 7 in
  let w = Array.make (4 * side * side) 0 and edges = ref 0 in
  for v = 0 to (side * side) - 1 do
    let row = v / side and col = v mod side in
    let exists = [| col < side - 1; row < side - 1; col > 0; row > 0 |] in
    for dir = 0 to 3 do
      if exists.(dir) then begin
        w.((4 * v) + dir) <- 1 + below r max_weight;
        incr edges
      end
    done
  done;
  { side; w; edges = !edges }

let neighbour g v dir =
  match dir with
  | 0 -> v + 1
  | 1 -> v + g.side
  | 2 -> v - 1
  | _ -> v - g.side

let source = 0

(* Sequential Dijkstra with lazy deletion over [Mound.Seq_int], the
   reference the parallel solves are compared against. *)
let dijkstra g =
  let n = g.side * g.side in
  let dist = Array.make n max_int in
  let q = Mound.Seq_int.create () in
  dist.(source) <- 0;
  Mound.Seq_int.insert q source;
  let rec loop () =
    match Mound.Seq_int.extract_min q with
    | None -> ()
    | Some key ->
        let d = key lsr vertex_bits and v = key land vertex_mask in
        if d = dist.(v) then
          for dir = 0 to 3 do
            let wt = g.w.((4 * v) + dir) in
            if wt > 0 then begin
              let u = neighbour g v dir and nd = d + wt in
              if nd < dist.(u) then begin
                dist.(u) <- nd;
                Mound.Seq_int.insert q ((nd lsl vertex_bits) lor u)
              end
            end
          done;
        loop ()
  in
  loop ();
  dist
