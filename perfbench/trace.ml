(* Spans and GC intervals for the traced run.

   Each domain owns one preallocated span buffer: three ints per span
   (start ns, end ns, step id and kind packed together), filled without
   allocation inside the timed loop and read back after the phase. Op
   spans and GC intervals share CLOCK_MONOTONIC: spans are stamped with
   bechamel's [Monotonic_clock], and the runtime stamps its events with
   the same clock, so the GC time inside an op span can be subtracted to
   give the op's self time. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Span kinds. [Timed] is the call a workload measures latency on;
   [Other] is any further call into the structure in the same step. *)
let timed = 0
let other = 1

(* The data lives outside the OCaml heap, so the collector never scans
   it: neither the GC pauses of a traced run nor the full collections
   between episodes grow with the buffers. *)
type buf = {
  data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int; (* spans recorded *)
}

let create_buf cap =
  let data = Bigarray.(Array1.create int c_layout (3 * cap)) in
  Bigarray.Array1.fill data 0;
  { data; len = 0 }

let capacity b = Bigarray.Array1.dim b.data / 3
let full b = b.len >= capacity b
let clear b = b.len <- 0

let add b ~start ~stop ~step ~kind =
  let i = 3 * b.len in
  if i < Bigarray.Array1.dim b.data then begin
    Bigarray.Array1.unsafe_set b.data i start;
    Bigarray.Array1.unsafe_set b.data (i + 1) stop;
    Bigarray.Array1.unsafe_set b.data (i + 2) ((step lsl 1) lor kind);
    b.len <- b.len + 1
  end

let start b k = b.data.{3 * k}
let stop b k = b.data.{(3 * k) + 1}
let kind b k = b.data.{(3 * k) + 2} land 1
let step b k = b.data.{(3 * k) + 2} lsr 1

(* --- GC intervals from runtime events ------------------------------- *)

(* A domain is "in the GC" from the first runtime phase it enters until
   it leaves the last one; nested phases merge into one interval. Waiting
   on a condition variable (a domain parked in [Domain.join]) is not GC
   work and is ignored. Ring 0 is the main domain; any other ring is the
   one spawned worker, since the benchmark never runs more than two
   domains at a time. *)
type intervals = {
  starts : int array array; (* per domain *)
  stops : int array array;
  count : int array;
  depth : int array;
  open_at : int array;
  mutable lost : int; (* events overwritten before they were read *)
}

type gc = {
  iv : intervals;
  cursor : Runtime_events.cursor;
  cbs : Runtime_events.Callbacks.t;
}

let gc_cap = 1 lsl 18
let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)
let slot ring = if ring = 0 then 0 else 1

let callbacks iv =
  let counts_as_gc = function
    | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false
    | _ -> true
  in
  let runtime_begin ring t phase =
    if counts_as_gc phase then begin
      let d = slot ring in
      if iv.depth.(d) = 0 then iv.open_at.(d) <- ts t;
      iv.depth.(d) <- iv.depth.(d) + 1
    end
  in
  let runtime_end ring t phase =
    if counts_as_gc phase then begin
      let d = slot ring in
      if iv.depth.(d) > 0 then begin
        iv.depth.(d) <- iv.depth.(d) - 1;
        if iv.depth.(d) = 0 && iv.count.(d) < gc_cap then begin
          iv.starts.(d).(iv.count.(d)) <- iv.open_at.(d);
          iv.stops.(d).(iv.count.(d)) <- ts t;
          iv.count.(d) <- iv.count.(d) + 1
        end
      end
    end
  in
  let lost_events _ n = iv.lost <- iv.lost + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

(* Starts this process's runtime events, paused until [gc_begin]. *)
let create_gc () =
  let iv =
    {
      starts = Array.init 2 (fun _ -> Array.make gc_cap 0);
      stops = Array.init 2 (fun _ -> Array.make gc_cap 0);
      count = Array.make 2 0;
      depth = Array.make 2 0;
      open_at = Array.make 2 0;
      lost = 0;
    }
  in
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  Runtime_events.pause ();
  { iv; cursor; cbs = callbacks iv }

(* Start collecting. Whatever is still in the rings is drained and
   dropped, so only events from now on count. *)
let gc_begin g =
  Runtime_events.resume ();
  let drop = Runtime_events.Callbacks.create () in
  ignore (Runtime_events.read_poll g.cursor drop None);
  Array.fill g.iv.count 0 2 0;
  Array.fill g.iv.depth 0 2 0;
  g.iv.lost <- 0

let poll g = ignore (Runtime_events.read_poll g.cursor g.cbs None)

let gc_end g =
  poll g;
  Runtime_events.pause ()

(* --- self time ------------------------------------------------------ *)

(* Overlap of the span [a, b) with domain [d]'s GC intervals, advancing
   [j] (the first interval that can still overlap). Spans and intervals
   of one domain are each in time order and pairwise disjoint. *)
let overlap iv d j a b =
  let starts = iv.starts.(d) and stops = iv.stops.(d) and n = iv.count.(d) in
  while !j < n && stops.(!j) <= a do incr j done;
  let k = ref !j and acc = ref 0 in
  while !k < n && starts.(!k) < b do
    acc := !acc + (min b stops.(!k) - max a starts.(!k));
    incr k
  done;
  !acc

type summary = {
  calls : int array; (* by kind *)
  busy_ns : int array;
  self_ns : int array;
  steps : int;
  timed_hist : Hist.t; (* busy time of [Timed] spans *)
  gc_ns : int; (* all GC interval time *)
  gc_in_op_ns : int;
  gc_max_ns : int;
  lost_events : int; (* runtime events dropped before they were read *)
}

let empty_summary () =
  {
    calls = [| 0; 0 |];
    busy_ns = [| 0; 0 |];
    self_ns = [| 0; 0 |];
    steps = 0;
    timed_hist = Hist.create ();
    gc_ns = 0;
    gc_in_op_ns = 0;
    gc_max_ns = 0;
    lost_events = 0;
  }

(* Fold one phase's spans (one buffer per domain, index = domain slot)
   and GC intervals into [acc]. *)
let summarize acc g (bufs : buf array) =
  let calls = Array.copy acc.calls
  and busy = Array.copy acc.busy_ns
  and self = Array.copy acc.self_ns in
  let steps = ref acc.steps and in_op = ref acc.gc_in_op_ns in
  Array.iteri
    (fun d b ->
      let j = ref 0 and last_step = ref (-1) in
      for k = 0 to b.len - 1 do
        let a = start b k and z = stop b k and kd = kind b k in
        let o = overlap g.iv d j a z in
        calls.(kd) <- calls.(kd) + 1;
        busy.(kd) <- busy.(kd) + (z - a);
        self.(kd) <- self.(kd) + (z - a - o);
        in_op := !in_op + o;
        if kd = timed then Hist.add acc.timed_hist (z - a);
        if step b k <> !last_step then (incr steps; last_step := step b k)
      done)
    bufs;
  let gc_ns = ref acc.gc_ns and gc_max = ref acc.gc_max_ns in
  for d = 0 to 1 do
    for k = 0 to g.iv.count.(d) - 1 do
      let len = g.iv.stops.(d).(k) - g.iv.starts.(d).(k) in
      gc_ns := !gc_ns + len;
      if len > !gc_max then gc_max := len
    done
  done;
  {
    calls;
    busy_ns = busy;
    self_ns = self;
    steps = !steps;
    timed_hist = acc.timed_hist;
    gc_ns = !gc_ns;
    gc_in_op_ns = !in_op;
    gc_max_ns = !gc_max;
    lost_events = acc.lost_events + g.iv.lost;
  }
