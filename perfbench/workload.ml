(* The two closed-loop workloads, each run on two domains (the calling
   domain plus one spawned worker) against one structure.

   A phase is measured in windows: hold cuts its run into equal time
   slices, and SSSP counts each solve as one window. Each window records
   the hypervisor steal it saw (see [Steal]). The rate and the latency
   percentiles of a phase are medians over the windows the host stole
   least from, so bursts of outside load, which last seconds on a shared
   host, spoil the windows they hit, not the run.
   Oracles run after the timed part of each unit and report failures as
   strings; any failure makes the whole run incorrect. *)

module type QUEUE = sig
  include Mound.Intf.MOUND with type elt = int

  val name : string
  val create : ?init_depth:int -> unit -> t
  val ops : t -> Mound.Stats.Ops.t
end

let now = Trace.now
let seconds_of_ns ns = float_of_int ns *. 1e-9

(* Per-domain accumulators, allocated before a phase starts. *)
type dom = {
  hists : Hist.t array; (* timed-call latency (ns) per window *)
  steps : int array; (* timed calls per window *)
  spans : Trace.buf; (* capacity 0 when untraced: nothing is recorded *)
  marks : int array; (* steal ticks as window [w] began; hold, domain 0 *)
  mutable timed : int; (* timed calls, all episodes *)
  mutable win : int; (* current window *)
  mutable step : int; (* next step id; spans of one step share it *)
  mutable calls : int;
  mutable failed : int; (* Timeout or Rejected outcomes *)
  mutable empty : int; (* extract calls that returned no element *)
  mutable n_ext : int;
  mutable sum_ext : int;
  mutable n_ins : int;
  mutable sum_ins : int;
  mutable stop_ns : int; (* when this domain left the timed loop *)
  mutable idle_since : int; (* first of a run of empty extracts, or 0 *)
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int; (* collections in the timed loops; domain 0 *)
  mutable major_gcs : int;
}

let make_dom ~windows ~spans =
  {
    hists = Array.init windows (fun _ -> Hist.create ());
    steps = Array.make windows 0;
    spans;
    marks = Array.make (windows + 1) 0;
    timed = 0;
    win = 0;
    step = 0;
    calls = 0;
    failed = 0;
    empty = 0;
    n_ext = 0;
    sum_ext = 0;
    n_ins = 0;
    sum_ins = 0;
    stop_ns = 0;
    idle_since = 0;
    minor_words = 0.;
    promoted_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
  }

let record st t0 t1 =
  Hist.add (Array.unsafe_get st.hists st.win) (t1 - t0);
  st.steps.(st.win) <- st.steps.(st.win) + 1;
  st.timed <- st.timed + 1

(* Run [work 0 doms.(0)] here and [work 1 doms.(1)] on a new domain,
   releasing both together after [on_start]; returns the start stamp.
   Each side records its own allocation so the counts are exact. *)
let par2 (doms : dom array) ~on_start work =
  let ready = Atomic.make 0 and t0 = Atomic.make 0 in
  let run d =
    let st = doms.(d) in
    let mw = Gc.minor_words () and s0 = Gc.quick_stat () in
    Atomic.incr ready;
    while Atomic.get ready < 2 do Domain.cpu_relax () done;
    if d = 0 then begin
      on_start ();
      Atomic.set t0 (now ());
      Atomic.incr ready
    end
    else while Atomic.get ready < 3 do Domain.cpu_relax () done;
    work d st;
    let s1 = Gc.quick_stat () in
    st.minor_words <- st.minor_words +. (Gc.minor_words () -. mw);
    st.promoted_words <-
      st.promoted_words +. (s1.promoted_words -. s0.promoted_words);
    (* collection counts are global: count them once *)
    if d = 0 then begin
      st.minor_gcs <-
        st.minor_gcs + s1.minor_collections - s0.minor_collections;
      st.major_gcs <-
        st.major_gcs + s1.major_collections - s0.major_collections
    end
  in
  let other = Domain.spawn (fun () -> run 1) in
  run 0;
  Domain.join other;
  Atomic.get t0

(* --- results --------------------------------------------------------- *)

(* [acc += o] on the counters the per-layer run reports. *)
let add_ops (acc : Mound.Stats.Ops.t) (o : Mound.Stats.Ops.t) =
  acc.insert_retries <- acc.insert_retries + o.insert_retries;
  acc.extract_retries <- acc.extract_retries + o.extract_retries;
  acc.helps <- acc.helps + o.helps;
  acc.lock_spins <- acc.lock_spins + o.lock_spins;
  acc.livelock_near_misses <-
    acc.livelock_near_misses + o.livelock_near_misses;
  acc.root_fallbacks <- acc.root_fallbacks + o.root_fallbacks

type tree = { depth : int; nonempty_frac : float; avg_list_len : float }

type phase = {
  rate : float; (* work units per second, median over kept windows *)
  p50_ns : float; (* timed-call latency percentiles, likewise *)
  p99_ns : float;
  windows : int; (* windows measured *)
  kept : int; (* windows the host stole least from, which the above use *)
  seconds : float; (* timed wall time *)
  calls : int; (* all calls into the structure *)
  steps : int; (* timed calls *)
  failed : int;
  empty : int;
  stale_frac : float; (* SSSP pops beyond one per vertex, as a share *)
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  ops : Mound.Stats.Ops.t; (* counts of the timed phases *)
  tree : tree;
  live_mb : float; (* the queue's own live heap, least over episodes *)
  setup_s : float; (* median per-episode queue set-up, least stolen *)
  trace : Trace.summary option;
  errors : string list;
}

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The hold model with exponential increments (mean [hold_mean]):
   pending keys, measured from the current time, are then exponential
   too, so a queue pre-filled with exponential keys starts in the
   model's steady state instead of drifting towards it during the run. *)
type hold_input = { prefill : int array; incs : int array array }

let hold_mean = float_of_int (1 lsl 30)

let exponential seed ~stream ~n =
  let u = Inputs.uniform seed ~stream ~n ~bound:(1 lsl 53) in
  Array.map
    (fun x ->
      int_of_float (-.hold_mean *. log ((float_of_int x +. 1.) /. 0x1p53)))
    u

let hold_input seed ~size =
  {
    prefill = exponential seed ~stream:1 ~n:size;
    incs =
      Array.init 2 (fun d -> exponential seed ~stream:(2 + d) ~n:(1 lsl 16));
  }

(* A hold queue is created with a leaf row at least as wide as the keys
   it holds. Filled only as deep as its keys need, it grows a level at a
   random point of a hold run, which makes its speed and live heap flip
   between runs; sized like this, it does not grow during the run. *)
let hold_depth size =
  let rec go d = if 1 lsl (d - 1) >= size then d else go (d + 1) in
  go 1

(* Span buffers hold this many spans per domain (24 MB each). They are
   shared by all traced episodes, which run one at a time and are
   summarized when they end. A traced hold episode ends early for a
   domain whose buffer fills. *)
let span_cap = 1 lsl 20

let shared_spans = lazy (Array.init 2 (fun _ -> Trace.create_buf span_cap))
let shared_gc = lazy (Trace.create_gc ())

(* Hold's time slice: one window. *)
let slice_ns = 250_000_000

type sssp_state = {
  g : Inputs.grid;
  dist : int Atomic.t array; (* shared by the solves, reset before each *)
  pending : int Atomic.t; (* keys inserted but not yet fully processed *)
}

let sssp_state (g : Inputs.grid) =
  {
    g;
    dist = Array.init (g.side * g.side) (fun _ -> Atomic.make max_int);
    pending = Atomic.make 0;
  }

module Make (Q : QUEUE) = struct
  let tree_stats q =
    let nodes = ref 0 in
    let st =
      Mound.Stats.compute
        ~iter:(fun f ->
          Q.fold_nodes q
            (fun () i l ->
              incr nodes;
              f i l)
            ())
        ~to_float:float_of_int ()
    in
    let nonempty =
      Array.fold_left (fun s (lv : Mound.Stats.level) -> s + lv.nonempty) 0
        st.levels
    in
    {
      depth = st.depth;
      nonempty_frac = float_of_int nonempty /. float_of_int (max 1 !nodes);
      avg_list_len =
        float_of_int (Mound.Stats.total_elements st)
        /. float_of_int (max 1 nonempty);
    }

  let with_gc g f =
    match g with
    | None -> f ()
    | Some g ->
        Trace.gc_begin g;
        let r = f () in
        Trace.gc_end g;
        r

  (* Only the main domain reads the event rings, every 64 steps. *)
  let poll g st =
    match g with Some g when st.step land 63 = 0 -> Trace.poll g | _ -> ()

  (* One structure measured in one mode, built up an episode at a time:
     a hold run on a freshly filled queue, or one solve on an empty
     one. Episodes of the three structures are interleaved by the
     caller, so slow stretches of the host and the chaotic regimes two
     contending domains fall into are spread over all of them. *)
  type acc = {
    traced : bool;
    target : float; (* timed seconds to spend *)
    doms : dom array;
    mutable spent : float;
    mutable windows : ((float * float * float) * int) list;
        (* (rate, p50, p99) of each window, with the steal it saw *)
    mutable useful : int; (* timed calls that did useful work *)
    ops : Mound.Stats.Ops.t;
    mutable summary : Trace.summary;
    mutable errors : string list;
    mutable setup_s : (float * int) list; (* per episode, with steal *)
    mutable tree : tree;
    mutable live_mb : float list; (* per episode *)
  }

  (* An untraced phase gets one-span buffers, which only a stray
     [Trace.add] would fill; the self-test checks that they stay empty. *)
  let acc ~traced ~target ~windows =
    let spans =
      if traced then Lazy.force shared_spans
      else Array.init 2 (fun _ -> Trace.create_buf 1)
    in
    {
      traced;
      target;
      doms = Array.init 2 (fun d -> make_dom ~windows ~spans:spans.(d));
      spent = 0.;
      windows = [];
      useful = 0;
      ops = Mound.Stats.Ops.create ();
      summary = Trace.empty_summary ();
      errors = [];
      setup_s = [];
      tree = { depth = 0; nonempty_frac = 0.; avg_list_len = 0. };
      live_mb = [];
    }

  let finished a = a.spent >= a.target

  (* [run q doms gc] runs one timed episode on [q] and returns
     (measured windows as (index, rate, steal ticks) triples, timed ns,
     useful calls, errors); window [w]'s latencies are in the domains'
     [hists.(w)].
     [make_q ()] is timed as the episode's set-up. A full collection
     first keeps the previous episode's garbage off this one's clock and
     gives the live heap without a queue; after the episode the live
     heap is taken again, with [q] and the inputs [keep] still
     reachable, so the difference is the queue's own. The least of
     these over the episodes is reported: an SSSP queue ends an episode
     with zero to four of its (inner) mounds grown a level, at random,
     so its mean and median jump from run to run, while a queue whose
     every node got bigger raises them all. *)
  let episode a ~make_q ~keep run =
    Array.iter
      (fun st ->
        Array.iter (fun h -> Array.fill h 0 Hist.buckets 0) st.hists;
        Array.fill st.steps 0 (Array.length st.steps) 0;
        st.win <- 0;
        st.n_ext <- 0;
        st.sum_ext <- 0;
        st.n_ins <- 0;
        st.sum_ins <- 0;
        Trace.clear st.spans)
      a.doms;
    let gc = if a.traced then Some (Lazy.force shared_gc) else None in
    (* steal is read outside the set-up's clock: the system call slows
       the microseconds of code that follow it *)
    let s0 = Steal.ticks () in
    Gc.full_major ();
    let base = (Gc.stat ()).live_words in
    let t0 = now () in
    let q = make_q () in
    let t1 = now () in
    a.setup_s <- (seconds_of_ns (t1 - t0), Steal.ticks () - s0) :: a.setup_s;
    let ws, ns, useful, errs = run q a.doms gc in
    add_ops a.ops (Q.ops q);
    List.iter
      (fun (w, r, stolen) ->
        let h = Hist.merge [ a.doms.(0).hists.(w); a.doms.(1).hists.(w) ] in
        a.windows <-
          ((r, Hist.quantile h 0.5, Hist.quantile h 0.99), stolen)
          :: a.windows)
      ws;
    Option.iter
      (fun g ->
        a.summary <-
          Trace.summarize a.summary g (Array.map (fun st -> st.spans) a.doms))
      gc;
    a.useful <- a.useful + useful;
    a.errors <- a.errors @ errs;
    a.spent <- a.spent +. seconds_of_ns ns;
    if finished a then a.tree <- tree_stats q;
    Gc.full_major ();
    let words = (Gc.stat ()).live_words - base in
    ignore (Sys.opaque_identity (q, keep));
    a.live_mb <-
      (float_of_int (words * (Sys.word_size / 8)) /. 1048576.) :: a.live_mb

  let result a =
    let sum f = f a.doms.(0) + f a.doms.(1) in
    let steps = sum (fun d -> d.timed) in
    let kept = Steal.least_stolen a.windows in
    let med f = median (List.map f kept) in
    {
      rate = med (fun (r, _, _) -> r);
      p50_ns = med (fun (_, p, _) -> p);
      p99_ns = med (fun (_, _, p) -> p);
      windows = List.length a.windows;
      kept = List.length kept;
      seconds = a.spent;
      calls = sum (fun d -> d.calls);
      steps;
      failed = sum (fun d -> d.failed);
      empty = sum (fun d -> d.empty);
      stale_frac =
        float_of_int (steps - a.useful) /. float_of_int (max 1 steps);
      minor_words = a.doms.(0).minor_words +. a.doms.(1).minor_words;
      promoted_words = a.doms.(0).promoted_words +. a.doms.(1).promoted_words;
      minor_gcs = a.doms.(0).minor_gcs;
      major_gcs = a.doms.(0).major_gcs;
      ops = a.ops;
      tree = a.tree;
      live_mb = List.fold_left Float.min infinity a.live_mb;
      setup_s =
        (match Steal.least_stolen a.setup_s with [] -> 0. | l -> median l);
      trace = (if a.traced then Some a.summary else None);
      errors = a.errors;
    }

  (* ---- hold ---------------------------------------------------------- *)

  (* Deadline slack for the hold model's [_until] calls. The deadlines
     make every step read the deadline clock and take the [_until]
     paths; they are not meant to expire. With 10 ms, a lock holder
     whose vCPU the hypervisor took away for longer made a few calls a
     run time out on a busy host. *)
  let slack_ns = 1_000_000_000

  (* The pre-fill's counts are set-up, not part of the timed phase. *)
  let prefill inp =
    let q = Q.create ~init_depth:(hold_depth (Array.length inp.prefill)) () in
    Array.iter (Q.insert q) inp.prefill;
    Mound.Stats.Ops.reset (Q.ops q);
    q

  let hold_loop q g ~traced ~mark ~start ~slices incs (st : dom) =
    let stop_at = start + (slices * slice_ns) in
    let mask = Array.length incs - 1 in
    let next = ref (start + slice_ns) in
    let rec loop () =
      let i = st.step in
      let deadline = Runtime.Real.monotonic_ns () + slack_ns in
      let t0 = now () in
      let r = Q.extract_min_until q ~deadline in
      let t1 = now () in
      while t1 >= !next && st.win < slices do
        st.win <- st.win + 1;
        next := !next + slice_ns;
        if mark then st.marks.(st.win) <- Steal.ticks ()
      done;
      record st t0 t1;
      st.calls <- st.calls + 1;
      if traced then
        Trace.add st.spans ~start:t0 ~stop:t1 ~step:i ~kind:Trace.timed;
      (match r with
      | Mound.Intf.Ok (Some k) ->
          st.n_ext <- st.n_ext + 1;
          st.sum_ext <- st.sum_ext + k;
          let k' = k + Array.unsafe_get incs (i land mask) in
          let deadline = Runtime.Real.monotonic_ns () + slack_ns in
          let t2 = if traced then now () else 0 in
          (match Q.insert_until q ~deadline k' with
          | Mound.Intf.Ok () ->
              st.n_ins <- st.n_ins + 1;
              st.sum_ins <- st.sum_ins + k'
          | Timeout | Rejected -> st.failed <- st.failed + 1);
          st.calls <- st.calls + 1;
          if traced then
            Trace.add st.spans ~start:t2 ~stop:(now ()) ~step:i
              ~kind:Trace.other
      | Ok None -> st.empty <- st.empty + 1
      | Timeout | Rejected -> st.failed <- st.failed + 1);
      st.step <- i + 1;
      poll g st;
      if t1 < stop_at && not (traced && Trace.full st.spans) then loop ()
      else st.stop_ns <- t1
    in
    loop ()

  (* Hold runs in episodes of up to this many slices, each on a freshly
     filled queue; the fill is timed as set-up. The first slice of an
     episode is a warm-up and is not measured: on a freshly filled queue
     it ran 10-20% faster than the slices after it. *)
  let episode_slices = 5

  let hold_acc ~traced ~target =
    acc ~traced ~target ~windows:(episode_slices + 1)

  (* Windows that end after either domain stopped early (a full span
     buffer) are not counted. *)
  let hold a inp =
    let left =
      int_of_float
        (ceil ((a.target -. a.spent) *. 1e9 /. float_of_int slice_ns))
    in
    let slices = max 2 (min episode_slices left) in
    episode a ~make_q:(fun () -> prefill inp) ~keep:inp (fun q doms g ->
        let start = ref 0 in
        ignore
          (with_gc g (fun () ->
               par2 doms
                 ~on_start:(fun () ->
                   doms.(0).marks.(0) <- Steal.ticks ();
                   start := now ())
                 (fun d st ->
                   hold_loop q
                     (if d = 0 then g else None)
                     ~traced:a.traced ~mark:(d = 0) ~start:!start ~slices
                     inp.incs.(d) st)));
        let full = min slices (min doms.(0).win doms.(1).win) in
        let marks = doms.(0).marks in
        let rates =
          List.init (max 0 (full - 1)) (fun i ->
              let w = i + 1 in
              ( w,
                float_of_int (doms.(0).steps.(w) + doms.(1).steps.(w))
                /. seconds_of_ns slice_ns,
                marks.(w + 1) - marks.(w) ))
        in
        let sum f = f doms.(0) + f doms.(1) in
        (* conservation: what is left is what went in minus what came out *)
        let n_left, sum_left =
          Q.fold_nodes q
            (fun (n, s) _ l -> (n + List.length l, List.fold_left ( + ) s l))
            (0, 0)
        in
        let n_exp =
          Array.length inp.prefill
          + sum (fun d -> d.n_ins)
          - sum (fun d -> d.n_ext)
        and sum_exp =
          Array.fold_left ( + ) 0 inp.prefill
          + sum (fun d -> d.sum_ins)
          - sum (fun d -> d.sum_ext)
        in
        let errs =
          List.concat
            [
              (if n_left <> n_exp then
                 [ Printf.sprintf "hold: %d keys left, not %d" n_left n_exp ]
               else []);
              (if sum_left <> sum_exp then [ "hold: key sum not conserved" ]
               else []);
              (if Q.size q <> n_exp then
                 [ "hold: size disagrees with contents" ]
               else []);
              (if not (Q.check q) then [ "hold: check () failed" ] else []);
              (if sum (fun d -> d.empty) > 0 then
                 [ "hold: extract found the queue empty" ]
               else []);
            ]
        in
        (rates, full * slice_ns, sum (fun d -> d.n_ext), errs))

  (* ---- sssp ---------------------------------------------------------- *)

  let rec lower dist u nd =
    let cur = Atomic.get dist.(u) in
    nd < cur && (Atomic.compare_and_set dist.(u) cur nd || lower dist u nd)

  (* A solve gives up once the queue has looked empty for this long while
     keys are still pending: only a queue that lost keys gets there. *)
  let stall_ns = 1_000_000_000

  let sssp_loop s q gc ~traced (st : dom) =
    let open Inputs in
    let rec loop () =
      let t0 = now () in
      let r = Q.extract_min q in
      let t1 = now () in
      st.calls <- st.calls + 1;
      match r with
      | Some key ->
          let i = st.step in
          st.idle_since <- 0;
          record st t0 t1;
          if traced then
            Trace.add st.spans ~start:t0 ~stop:t1 ~step:i ~kind:Trace.timed;
          st.n_ext <- st.n_ext + 1;
          let d = key lsr vertex_bits and v = key land vertex_mask in
          if d = Atomic.get s.dist.(v) then
            for dir = 0 to 3 do
              let wt = Array.unsafe_get s.g.w ((4 * v) + dir) in
              if wt > 0 then begin
                let u = neighbour s.g v dir and nd = d + wt in
                if lower s.dist u nd then begin
                  Atomic.incr s.pending;
                  let t2 = now () in
                  Q.insert q ((nd lsl vertex_bits) lor u);
                  st.calls <- st.calls + 1;
                  if traced then
                    Trace.add st.spans ~start:t2 ~stop:(now ()) ~step:i
                      ~kind:Trace.other
                end
              end
            done;
          Atomic.decr s.pending;
          st.step <- i + 1;
          poll gc st;
          loop ()
      | None ->
          st.empty <- st.empty + 1;
          if st.idle_since = 0 then st.idle_since <- t1;
          if Atomic.get s.pending = 0 || t1 - st.idle_since > stall_ns then
            st.stop_ns <- t1
          else begin
            Domain.cpu_relax ();
            loop ()
          end
    in
    loop ()

  (* One solve; a vertex's first pop at its final distance is the
     useful one. *)
  let sssp a (s : sssp_state) oracle =
    let n = s.g.side * s.g.side and make_q () = Q.create () in
    episode a ~make_q ~keep:(s, oracle) (fun q doms gc ->
        Array.iter (fun d -> Atomic.set d max_int) s.dist;
        Atomic.set s.dist.(Inputs.source) 0;
        Atomic.set s.pending 1;
        Q.insert q Inputs.source;
        Array.iter (fun st -> st.idle_since <- 0) doms;
        let s0 = Steal.ticks () in
        let t0 =
          with_gc gc (fun () ->
              par2 doms ~on_start:ignore (fun d st ->
                  sssp_loop s q
                    (if d = 0 then gc else None)
                    ~traced:a.traced st))
        in
        let ns = max doms.(0).stop_ns doms.(1).stop_ns - t0 in
        let stolen = Steal.ticks () - s0 in
        let wrong = ref 0 in
        Array.iteri
          (fun v d -> if Atomic.get s.dist.(v) <> d then incr wrong)
          oracle;
        let lost = Atomic.get s.pending in
        let errs =
          List.concat
            [
              (if !wrong > 0 then
                 [ Printf.sprintf "sssp: %d distances are wrong" !wrong ]
               else []);
              (if lost <> 0 then
                 [ Printf.sprintf "sssp: %d keys lost by the queue" lost ]
               else []);
              (if not (Q.is_empty q) then [ "sssp: queue not empty at the end" ]
               else []);
            ]
        in
        ( [ (0, float_of_int s.g.edges /. seconds_of_ns ns, stolen) ],
          ns,
          n,
          errs ))
end
