(* lint: allow-file — this module IS the real-hardware driver: it spawns
   domains and reads the wall clock by design. *)

(** Wall-clock experiment driver on real OCaml domains.

    Same workloads as {!Sim_exp}, measured in wall-clock time with a
    barrier-synchronized start and a disciplined trial protocol: every
    cell (structure × panel × thread count) runs [warmup] discarded
    trials followed by [trials] measured ones, each against a freshly
    built queue, and reports median / min / max / stddev throughput plus
    per-thread timing so start-skew is visible in the output.

    Timing protocol: the main thread reads the clock {e before} joining
    the start barrier, so no worker operation can land outside the timed
    window; each domain additionally records its own start and stop
    stamps (relative to that origin) after it clears the barrier. A
    trial's span is origin → last worker stop.

    On the reproduction container (a single CPU core) the multi-thread
    numbers demonstrate correctness under true preemptive concurrency;
    the 1-thread panels are the meaningful performance signal and feed
    the benchmark baselines in [BENCH_*.json] (see {!Bench_json}). *)

type thread_point = {
  tid : int;
  start_s : float;  (** seconds after the trial's clock origin *)
  stop_s : float;
  ops : int;
}

type trial = {
  seconds : float;  (** clock origin (pre-barrier) → last worker stop *)
  ops : int;
  throughput : float;  (** elements per second, wall clock *)
  skew_s : float;  (** latest worker start − earliest worker start *)
  thread_points : thread_point list;
}

type summary = {
  median : float;
  tp_min : float;
  tp_max : float;
  stddev : float;
}

type cell = {
  threads : int;
  warmup : int;
  trials : trial list;  (** measured trials only, in run order *)
  summary : summary;
  counters : Mound.Stats.Ops.t option;
      (** dynamic progress counters from the last measured trial *)
}

type series = { structure : string; cells : cell list }

let populate ?(dist = Workload.Uniform) (q : Pq.t) n ~seed =
  let rng = Prng.create (Int64.add seed 17L) in
  let rand b = Prng.int rng b in
  for _ = 1 to n do
    q.insert (Workload.key ~dist ~rand)
  done

(** One timed run against a fresh queue. Returns the trial and the
    queue's op counters (captured at quiescence). [dist] shapes both the
    pre-population keys and the in-run insert keys. *)
let run_trial ?(seed = 7L) ?(dist = Workload.Uniform) ~panel ~threads
    ~ops_per_thread ~init_size (maker : Pq.maker) =
  let q =
    maker.make
      ~capacity:
        (Sim_exp.capacity_for ~panel ~threads ~ops_per_thread ~init_size)
  in
  (match (panel : Workload.panel) with
  | Insert -> ()
  | Extract -> populate ~dist q (threads * ops_per_thread) ~seed
  | Mixed | Extract_many -> populate ~dist q init_size ~seed);
  let barrier = Barrier.create (threads + 1) in
  let counts = Array.make threads 0 in
  let starts = Array.make threads 0. in
  let stops = Array.make threads 0. in
  let domains =
    Array.init threads (fun tid ->
        (* per-domain slot arrays: each domain writes only its own
           [tid] index, and [Domain.join] below is the synchronization *)
        Domain.spawn (fun () ->
            let rng = Prng.for_thread ~seed ~id:tid in
            Barrier.wait barrier;
            starts.(tid) <- Unix.gettimeofday ();
            counts.(tid) <-
              Workload.run_thread ~dist ~panel ~q
                ~rand:(fun b -> Prng.int rng b)
                ~ops:ops_per_thread ();
            stops.(tid) <- Unix.gettimeofday ()))
  in
  (* Clock origin is taken before the barrier opens: early worker
     operations cannot land outside the timed window. *)
  let t0 = Unix.gettimeofday () in
  Barrier.wait barrier;
  Array.iter Domain.join domains;
  let last_stop = Array.fold_left max neg_infinity stops in
  let seconds = last_stop -. t0 in
  let ops = Array.fold_left ( + ) 0 counts in
  let first_start = Array.fold_left min infinity starts in
  let last_start = Array.fold_left max neg_infinity starts in
  let thread_points =
    List.init threads (fun tid ->
        {
          tid;
          start_s = starts.(tid) -. t0;
          stop_s = stops.(tid) -. t0;
          ops = counts.(tid);
        })
  in
  ( {
      seconds;
      ops;
      throughput = (if seconds > 0. then float_of_int ops /. seconds else 0.);
      skew_s = last_start -. first_start;
      thread_points;
    },
    q.ops () )

let summarize trials =
  let tps = List.map (fun t -> t.throughput) trials in
  let sorted = List.sort compare tps in
  let n = List.length sorted in
  let median =
    if n = 0 then 0.
    else if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.
  in
  let tp_min = match sorted with [] -> 0. | x :: _ -> x in
  let tp_max = List.fold_left max 0. sorted in
  let mean = List.fold_left ( +. ) 0. tps /. float_of_int (max 1 n) in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. tps
    /. float_of_int (max 1 n)
  in
  { median; tp_min; tp_max; stddev = sqrt var }

(** [run_cell] — [warmup] discarded trials, then [trials] measured ones,
    each on a fresh queue with a distinct derived seed.

    Low-thread cells get an automatic boost: at 1–2 threads each trial
    is over in a handful of milliseconds, so a single descheduling blip
    lands squarely in the median — the committed baselines showed
    1-thread stddev near 30% of the median. Doubling the measured
    trials and adding one warmup there tightens the median at
    negligible wall-clock cost, while the doc-level [ops_per_thread]
    stays uniform across cells so throughputs remain comparable. *)
let run_cell ?(seed = 7L) ?(warmup = 1) ?(trials = 3) ?dist ~panel ~threads
    ~ops_per_thread ~init_size (maker : Pq.maker) =
  let warmup, trials =
    if threads <= 2 then (warmup + 1, 2 * trials) else (warmup, trials)
  in
  let trial_seed i = Int64.add seed (Int64.of_int (1000 * i)) in
  for i = 1 to warmup do
    ignore
      (run_trial ~seed:(trial_seed (-i)) ?dist ~panel ~threads ~ops_per_thread
         ~init_size maker)
  done;
  let counters = ref None in
  let measured =
    List.init trials (fun i ->
        let t, ops =
          run_trial ~seed:(trial_seed i) ?dist ~panel ~threads ~ops_per_thread
            ~init_size maker
        in
        counters := ops;
        t)
  in
  {
    threads;
    warmup;
    trials = measured;
    summary = summarize measured;
    counters = !counters;
  }

let run_series ?seed ?warmup ?trials ?dist ~panel ~thread_counts
    ~ops_per_thread ~init_size (maker : Pq.maker) =
  let name = (maker.make ~capacity:16).name in
  {
    structure = name;
    cells =
      List.map
        (fun threads ->
          run_cell ?seed ?warmup ?trials ?dist ~panel ~threads ~ops_per_thread
            ~init_size maker)
        thread_counts;
  }

let run_panel ?seed ?warmup ?trials ?dist ~panel ~thread_counts
    ~ops_per_thread ~init_size makers =
  List.map
    (fun m ->
      run_series ?seed ?warmup ?trials ?dist ~panel ~thread_counts
        ~ops_per_thread ~init_size m)
    makers

(* ----- overload scenarios (ISSUE 6) ----- *)

(** Overload scenarios: each runs the structure behind the {!Mound.Bounded}
    admission front-end and measures throughput {e and} degradation
    (shed / rejected / timeout counts travel in the cell's [counters]
    slot, so the mound-bench/1 panels record them under regression
    guard).

    - [Bursty]: arrival in bursts well above the watermark, alternating
      with drain phases — exercises shedding and recovery from spikes.
    - [Overcap]: sustained 2× over-capacity traffic (two inserts per
      extract) — exercises steady-state rejection.
    - [Zipf_mix]: balanced mix under Zipfian keys — skew pressure near
      the root rather than admission pressure. *)
type overload_scenario = Bursty | Overcap | Zipf_mix

let scenario_name = function
  | Bursty -> "bursty"
  | Overcap -> "overcap"
  | Zipf_mix -> "zipf"

let scenario_of_string = function
  | "bursty" -> Some Bursty
  | "overcap" -> Some Overcap
  | "zipf" | "zipfian" -> Some Zipf_mix
  | _ -> None

let scenario_policy : overload_scenario -> Mound.Bounded.Make(Runtime.Real).policy
    = function
  | Bursty -> Shed
  | Overcap -> Reject
  | Zipf_mix -> Shed

module B = Mound.Bounded.Make (Runtime.Real)

(* Any [Pq.t] handle as a Bounded substrate. The handle's extract_approx
   has the default probe depth; good enough for harness shedding. *)
let pq_ops : (Pq.t, int) B.ops =
  {
    insert = (fun q v -> q.Pq.insert v);
    try_insert = (fun q v -> q.Pq.try_insert v);
    insert_until = (fun q ~deadline v -> q.Pq.insert_until ~deadline v);
    extract_min = (fun q -> q.Pq.extract_min ());
    extract_min_until = (fun q ~deadline -> q.Pq.extract_min_until ~deadline);
    extract_approx = (fun ~max_level:_ q -> q.Pq.extract_approx ());
  }

let burst_len = 64

(* One thread's share of an overload scenario: every admission decision
   (including a rejection) counts as a completed operation — overload
   throughput measures how fast the front-end disposes of traffic, not
   just how much it accepts. *)
let run_overload_thread ~scenario ~(b : (Pq.t, int) B.t) ~rand ~ops () =
  let z = lazy (Workload.zipf ()) in
  let done_ = ref 0 in
  for i = 1 to ops do
    let inserting =
      match scenario with
      (* two insert bursts per drain burst: spikes that outrun draining,
         so occupancy climbs past any fixed watermark and shedding fires *)
      | Bursty -> i / burst_len mod 3 < 2
      | Overcap -> i mod 3 < 2
      | Zipf_mix -> rand 2 = 0
    in
    if inserting then begin
      let key =
        match scenario with
        | Zipf_mix -> Workload.zipf_key (Lazy.force z) ~rand
        | Bursty | Overcap -> rand Workload.key_range
      in
      match B.insert b key with
      | Mound.Intf.Ok () | Mound.Intf.Rejected -> incr done_
      | Mound.Intf.Timeout -> incr done_
    end
    else begin
      ignore (B.extract_min b);
      incr done_
    end
  done;
  !done_

(** One timed overload trial: same barrier/clock protocol as {!run_trial},
    with the queue behind a Bounded front-end at [capacity]. The counter
    snapshot merges the front-end's shed/rejected/timeout counts with the
    structure's own retry counters. *)
let run_overload_trial ?(seed = 7L) ~scenario ~threads ~ops_per_thread
    ~capacity (maker : Pq.maker) =
  let q = maker.make ~capacity:(capacity + (threads * ops_per_thread)) in
  let b =
    B.make ~ops:pq_ops ~capacity ~policy:(scenario_policy scenario) q
  in
  let barrier = Barrier.create (threads + 1) in
  let counts = Array.make threads 0 in
  let starts = Array.make threads 0. in
  let stops = Array.make threads 0. in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let rng = Prng.for_thread ~seed ~id:tid in
            Barrier.wait barrier;
            starts.(tid) <- Unix.gettimeofday ();
            counts.(tid) <-
              run_overload_thread ~scenario ~b
                ~rand:(fun bound -> Prng.int rng bound)
                ~ops:ops_per_thread ();
            stops.(tid) <- Unix.gettimeofday ()))
  in
  let t0 = Unix.gettimeofday () in
  Barrier.wait barrier;
  Array.iter Domain.join domains;
  let last_stop = Array.fold_left max neg_infinity stops in
  let seconds = last_stop -. t0 in
  let ops = Array.fold_left ( + ) 0 counts in
  let first_start = Array.fold_left min infinity starts in
  let last_start = Array.fold_left max neg_infinity starts in
  let thread_points =
    List.init threads (fun tid ->
        {
          tid;
          start_s = starts.(tid) -. t0;
          stop_s = stops.(tid) -. t0;
          ops = counts.(tid);
        })
  in
  let counters = Mound.Stats.Ops.create () in
  Chaos_exp.add_ops counters (B.counters b);
  (match q.Pq.ops () with Some o -> Chaos_exp.add_ops counters o | None -> ());
  ( {
      seconds;
      ops;
      throughput = (if seconds > 0. then float_of_int ops /. seconds else 0.);
      skew_s = last_start -. first_start;
      thread_points;
    },
    Some counters )

let run_overload_cell ?(seed = 7L) ?(warmup = 1) ?(trials = 3) ~scenario
    ~threads ~ops_per_thread ~capacity (maker : Pq.maker) =
  let trial_seed i = Int64.add seed (Int64.of_int (1000 * i)) in
  for i = 1 to warmup do
    ignore
      (run_overload_trial ~seed:(trial_seed (-i)) ~scenario ~threads
         ~ops_per_thread ~capacity maker)
  done;
  let counters = ref None in
  let measured =
    List.init trials (fun i ->
        let t, ops =
          run_overload_trial ~seed:(trial_seed i) ~scenario ~threads
            ~ops_per_thread ~capacity maker
        in
        counters := ops;
        t)
  in
  {
    threads;
    warmup;
    trials = measured;
    summary = summarize measured;
    counters = !counters;
  }

let run_overload_series ?seed ?warmup ?trials ~scenario ~thread_counts
    ~ops_per_thread ~capacity (maker : Pq.maker) =
  let name = (maker.make ~capacity:16).name in
  {
    structure = name;
    cells =
      List.map
        (fun threads ->
          run_overload_cell ?seed ?warmup ?trials ~scenario ~threads
            ~ops_per_thread ~capacity maker)
        thread_counts;
  }
