(* lint: allow-file — this module is a real-hardware driver like
   Real_exp: it spawns domains and reads wall-derived clocks by
   design. *)

(** Rank-error measurement for relaxed priority queues.

    Methodology per "Engineering MultiQueues": pre-populate a queue with
    a known key multiset, let [threads] domains drain it concurrently
    while timestamping every extraction, then replay the merged,
    stamp-ordered extraction log against an oracle multiset. An
    extraction's {e rank error} is the number of elements still present
    in the oracle that are strictly smaller than the value it returned —
    0 for an exact [extract_min], and for a MultiQueue a measured
    quantity whose distribution (mean / max per thread count) is the
    price paid for scalability.

    Timestamps are [Runtime.Real.monotonic_ns] read immediately after
    each extraction returns, so the replay order approximates the real
    linearization order; inversions between near-simultaneous
    extractions can shift individual errors by a few ranks but leave the
    distribution intact (each inversion swaps two adjacent replay
    steps). The exact structures double as a calibration: their measured
    mean stays near zero, bounding the noise this approximation adds.

    The per-extraction rank query must not be quadratic in the drain
    size, so the oracle is a Fenwick (binary-indexed) tree over the
    compressed key universe: O(log K) per query/removal. *)

type point = { stamp : int; value : int }

type rank_stats = {
  extractions : int;  (** successful extractions replayed *)
  empty_returns : int;  (** [None] returns (drain raced dry) *)
  unmatched : int;
      (** extracted values absent from the oracle — always 0 unless the
          structure invented or duplicated an element *)
  mean_error : float;
  max_error : int;
}

type cell = {
  threads : int;
  trial : Real_exp.trial;  (** wall-clock timing of the drain *)
  stats : rank_stats;
}

type series = { structure : string; cells : cell list }

(* --- Fenwick tree over the compressed key universe ----------------- *)

module Fenwick = struct
  type t = { tree : int array; n : int }

  let create n = { tree = Array.make (n + 1) 0; n }

  (* add [d] at 1-based index [i] *)
  let add t i d =
    let i = ref i in
    while !i <= t.n do
      t.tree.(!i) <- t.tree.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* sum of indices [1..i] *)
  let prefix t i =
    let i = ref i and s = ref 0 in
    while !i > 0 do
      s := !s + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !s
end

(* Binary search [v] in the sorted distinct-key array; the keys come
   from the populated multiset, so extracted values are present unless
   the structure invented one. *)
let find_key keys v =
  let lo = ref 0 and hi = ref (Array.length keys - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if Array.length keys > 0 && keys.(!lo) = v then Some !lo else None

(** Replay a stamp-ordered extraction log against the oracle holding the
    [init] multiset. *)
let replay ~init (log : point list) =
  let distinct = List.sort_uniq compare (Array.to_list init) in
  let keys = Array.of_list distinct in
  let k = Array.length keys in
  let fw = Fenwick.create k in
  Array.iter
    (fun v ->
      match find_key keys v with
      | Some i -> Fenwick.add fw (i + 1) 1
      | None -> assert false)
    init;
  let extractions = ref 0
  and unmatched = ref 0
  and sum = ref 0
  and max_e = ref 0 in
  List.iter
    (fun p ->
      match find_key keys p.value with
      | None -> incr unmatched
      | Some i ->
          if Fenwick.prefix fw (i + 1) - Fenwick.prefix fw i <= 0 then
            (* all copies of this key already drained: a duplicate *)
            incr unmatched
          else begin
            let smaller = Fenwick.prefix fw i in
            incr extractions;
            sum := !sum + smaller;
            if smaller > !max_e then max_e := smaller;
            Fenwick.add fw (i + 1) (-1)
          end)
    log;
  {
    extractions = !extractions;
    empty_returns = 0;
    unmatched = !unmatched;
    mean_error =
      (if !extractions = 0 then 0.
       else float_of_int !sum /. float_of_int !extractions);
    max_error = !max_e;
  }

(** One timed drain: populate with [threads * ops_per_thread] keys, let
    every domain extract its share with timestamps, replay. Same
    barrier / pre-barrier clock-origin protocol as {!Real_exp}. *)
let run_rank_trial ?(seed = 7L) ~threads ~ops_per_thread (maker : Pq.maker) =
  let n = threads * ops_per_thread in
  let q = maker.make ~capacity:n in
  let rng = Prng.create (Int64.add seed 17L) in
  let init = Array.init n (fun _ -> Prng.int rng Workload.key_range) in
  Array.iter q.Pq.insert init;
  let barrier = Barrier.create (threads + 1) in
  let logs = Array.make threads [] in
  let empties = Array.make threads 0 in
  let starts = Array.make threads 0. in
  let stops = Array.make threads 0. in
  let domains =
    Array.init threads (fun tid ->
        (* per-domain slot arrays: each domain writes only its own
           [tid] index; [Domain.join] is the synchronization *)
        Domain.spawn (fun () ->
            Barrier.wait barrier;
            starts.(tid) <- Unix.gettimeofday ();
            let log = ref [] and empty = ref 0 in
            for _ = 1 to ops_per_thread do
              match q.Pq.extract_min () with
              | Some v ->
                  let stamp = Runtime.Real.monotonic_ns () in
                  log := { stamp; value = v } :: !log
              | None -> incr empty
            done;
            (* program order restored: the merge's stable sort then keeps
               intra-thread order when coarse clocks produce stamp ties *)
            logs.(tid) <- List.rev !log;
            empties.(tid) <- !empty;
            stops.(tid) <- Unix.gettimeofday ()))
  in
  let t0 = Unix.gettimeofday () in
  Barrier.wait barrier;
  Array.iter Domain.join domains;
  let last_stop = Array.fold_left max neg_infinity stops in
  let seconds = last_stop -. t0 in
  let merged =
    Array.to_list logs |> List.concat
    |> List.sort (fun a b -> compare a.stamp b.stamp)
  in
  let stats = replay ~init merged in
  let stats =
    { stats with empty_returns = Array.fold_left ( + ) 0 empties }
  in
  let ops = stats.extractions in
  let first_start = Array.fold_left min infinity starts in
  let last_start = Array.fold_left max neg_infinity starts in
  let trial : Real_exp.trial =
    {
      seconds;
      ops;
      throughput = (if seconds > 0. then float_of_int ops /. seconds else 0.);
      skew_s = last_start -. first_start;
      thread_points =
        List.init threads (fun tid ->
            {
              Real_exp.tid;
              start_s = starts.(tid) -. t0;
              stop_s = stops.(tid) -. t0;
              ops = List.length logs.(tid);
            });
    }
  in
  (trial, stats)

(** Warmup + measured trials for one (structure, thread count) cell.
    Rank stats are aggregated across the measured trials: extraction
    counts and error sums add, the max is the max. *)
let run_rank_cell ?(seed = 7L) ?(warmup = 1) ?(trials = 3) ~threads
    ~ops_per_thread (maker : Pq.maker) =
  let trial_seed i = Int64.add seed (Int64.of_int (1000 * i)) in
  for i = 1 to warmup do
    ignore (run_rank_trial ~seed:(trial_seed (-i)) ~threads ~ops_per_thread maker)
  done;
  let measured =
    List.init trials (fun i ->
        run_rank_trial ~seed:(trial_seed i) ~threads ~ops_per_thread maker)
  in
  let trial = fst (List.nth measured (trials - 1)) in
  let agg =
    List.fold_left
      (fun acc (_, s) ->
        {
          extractions = acc.extractions + s.extractions;
          empty_returns = acc.empty_returns + s.empty_returns;
          unmatched = acc.unmatched + s.unmatched;
          mean_error =
            acc.mean_error +. (s.mean_error *. float_of_int s.extractions);
          max_error = max acc.max_error s.max_error;
        })
      {
        extractions = 0;
        empty_returns = 0;
        unmatched = 0;
        mean_error = 0.;
        max_error = 0;
      }
      measured
  in
  let agg =
    {
      agg with
      mean_error =
        (if agg.extractions = 0 then 0.
         else agg.mean_error /. float_of_int agg.extractions);
    }
  in
  ( { threads; trial; stats = agg },
    List.map fst measured )

let run_rank_series ?seed ?warmup ?trials ~thread_counts ~ops_per_thread
    (maker : Pq.maker) =
  let name = (maker.make ~capacity:16).name in
  let cells =
    List.map
      (fun threads ->
        run_rank_cell ?seed ?warmup ?trials ~threads ~ops_per_thread maker)
      thread_counts
  in
  ({ structure = name; cells = List.map fst cells }, List.map snd cells)

(** Emit the rank sweep as a mound-bench/1 document: the standard
    series/cells timing skeleton (so the generic tooling parses and
    validates it) with a ["rank"] key carrying the per-cell rank-error
    stats — extra keys are legal under the schema's validator. *)
let to_bench_json ?(seed = 7L) ?(warmup = 1) ?(trials = 3) ~ops_per_thread
    results =
  let series_json =
    List.map
      (fun ((s : series), per_cell_trials) ->
        {
          Real_exp.structure = s.structure;
          cells =
            List.map2
              (fun (c : cell) measured ->
                {
                  Real_exp.threads = c.threads;
                  warmup;
                  trials = measured;
                  summary = Real_exp.summarize measured;
                  counters = None;
                })
              s.cells per_cell_trials;
        })
      results
  in
  let doc =
    Bench_json.of_panel ~panel:"rankerror" ~seed ~warmup
      ~measured_trials:trials ~ops_per_thread ~init_size:0 series_json
  in
  let rank_json =
    Bench_json.Arr
      (List.concat_map
         (fun ((s : series), _) ->
           List.map
             (fun (c : cell) ->
               Bench_json.Obj
                 [
                   ("structure", Bench_json.Str s.structure);
                   ("threads", Bench_json.Num (float_of_int c.threads));
                   ( "extractions",
                     Bench_json.Num (float_of_int c.stats.extractions) );
                   ( "empty_returns",
                     Bench_json.Num (float_of_int c.stats.empty_returns) );
                   ( "unmatched",
                     Bench_json.Num (float_of_int c.stats.unmatched) );
                   ("mean_rank_error", Bench_json.Num c.stats.mean_error);
                   ( "max_rank_error",
                     Bench_json.Num (float_of_int c.stats.max_error) );
                 ])
             s.cells)
         results)
  in
  match doc with
  | Bench_json.Obj kvs -> Bench_json.Obj (kvs @ [ ("rank", rank_json) ])
  | other -> other
