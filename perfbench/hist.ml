(* Log-bucket latency histogram over nanosecond durations.

   Each power of two is split into [sub] linear buckets, so a bucket is
   at most 1/sub of its value wide. The array is allocated up front and
   [add] never allocates, so recording inside a timed loop does not
   disturb the GC it is partly measuring. Percentiles interpolate
   linearly inside the bucket that holds the requested rank. *)

let sub_bits = 6
let sub = 1 lsl sub_bits
let max_bits = 42 (* ~73 minutes in ns; longer durations are clamped *)
let buckets = (max_bits - sub_bits + 1) * sub

type t = int array

let create () : t = Array.make buckets 0

(* Position of the highest set bit of [v > 0]. *)
let msb v =
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (r := 32; v := !v lsr 32);
  if !v lsr 16 <> 0 then (r := !r + 16; v := !v lsr 16);
  if !v lsr 8 <> 0 then (r := !r + 8; v := !v lsr 8);
  if !v lsr 4 <> 0 then (r := !r + 4; v := !v lsr 4);
  if !v lsr 2 <> 0 then (r := !r + 2; v := !v lsr 2);
  if !v lsr 1 <> 0 then incr r;
  !r

let index v =
  if v < sub then max v 0
  else
    let shift = msb v - sub_bits in
    if shift >= max_bits - sub_bits then buckets - 1
    else ((shift + 1) * sub) + ((v lsr shift) land (sub - 1))

(* Inclusive lower bound and width of bucket [i]. *)
let bounds i =
  if i < sub then (i, 1)
  else
    let shift = (i / sub) - 1 and m = i mod sub in
    ((sub + m) lsl shift, 1 lsl shift)

let add (h : t) v =
  let i = index v in
  Array.unsafe_set h i (Array.unsafe_get h i + 1)

let merge (hs : t list) : t =
  let r = create () in
  List.iter (fun h -> Array.iteri (fun i c -> r.(i) <- r.(i) + c) h) hs;
  r

let count (h : t) = Array.fold_left ( + ) 0 h

(* [quantile h q] in ns, for [0 < q < 1]; [nan] on an empty histogram. *)
let quantile (h : t) q =
  let n = count h in
  if n = 0 then nan
  else
    let rank = q *. float_of_int n in
    let rec go i cum =
      let c = h.(i) in
      if c > 0 && float_of_int (cum + c) >= rank then
        let lo, w = bounds i in
        float_of_int lo
        +. (float_of_int w *. ((rank -. float_of_int cum) /. float_of_int c))
      else go (i + 1) (cum + c)
    in
    go 0 0
