(* Single-domain unit costs of the layers under the operations: the
   deadline clock, the software DCAS/DCSS substrate of the lock-free
   mound, and the benchmark's own span timer. Each is the median over
   batches of the mean cost per call. *)

module M = Mcas.Make (Runtime.Real.Atomic)

let now = Trace.now
let batches = 7

let per_call ~n f =
  let one () =
    let t0 = now () in
    f n;
    float_of_int (now () - t0) /. float_of_int n
  in
  Workload.median (List.init batches (fun _ -> one ()))

let clock_ns () =
  per_call ~n:200_000 (fun n ->
      let s = ref 0 in
      for _ = 1 to n do
        s := !s + Runtime.Real.monotonic_ns ()
      done;
      ignore (Sys.opaque_identity !s))

(* Mean step between successive distinct readings of the deadline
   clock, read back to back. *)
let clock_res_ns () =
  let ticks = 2000 in
  let steps = ref 0 and prev = ref (Runtime.Real.monotonic_ns ()) in
  let sum = ref 0 in
  while !steps < ticks do
    let t = Runtime.Real.monotonic_ns () in
    if t <> !prev then begin
      sum := !sum + (t - !prev);
      incr steps;
      prev := t
    end
  done;
  float_of_int !sum /. float_of_int ticks

let cas_ns () =
  let l = M.make 0 in
  per_call ~n:200_000 (fun n ->
      for i = 1 to n do
        ignore (M.cas l (i - 1) i)
      done;
      M.set l 0)

let dcas_ns () =
  let a = M.make 0 and b = M.make 0 in
  per_call ~n:100_000 (fun n ->
      for i = 1 to n do
        ignore (M.dcas a (i - 1) i b (i - 1) i)
      done;
      M.set a 0;
      M.set b 0)

let dcss_ns () =
  let a = M.make 0 and b = M.make 0 in
  per_call ~n:100_000 (fun n ->
      for i = 1 to n do
        ignore (M.dcss a 0 b (i - 1) i)
      done;
      M.set b 0)

let timer_pair_ns () =
  per_call ~n:200_000 (fun n ->
      let s = ref 0 in
      for _ = 1 to n do
        let a = now () in
        s := !s + (now () - a)
      done;
      ignore (Sys.opaque_identity !s))

let all () =
  [
    ("runtime.clock_ns", clock_ns (), "ns");
    ("runtime.clock_res_ns", clock_res_ns (), "ns");
    ("mcas.cas_ns", cas_ns (), "ns");
    ("mcas.dcas_ns", dcas_ns (), "ns");
    ("mcas.dcss_ns", dcss_ns (), "ns");
    ("bench.timer_pair_ns", timer_pair_ns (), "ns");
  ]
