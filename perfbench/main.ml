(* The repository benchmark: one workload against the lock-free, locking
   and MultiQueue integer mounds, their episodes interleaved, each on two
   domains and a fresh queue.

     main.exe --workload hold|sssp --seed N --seconds S --trace 0|1

   Prints a provenance block, one line per metric, and as its last line
   a JSON object {correct, attempted, failed, metrics}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1, the per-layer
   ones from a traced run. Exits 1 when any correctness oracle fails. *)

open Perfbench

(* Claims are tuned on [default_seed] and confirmed on [held_out_seed],
   which is not used while a change is written. *)
let default_seed = 1
let held_out_seed = 20121010

type sizes = {
  hold_size : int; (* keys held in the hold queue *)
  side : int; (* SSSP grid side *)
  oracle_reps : int; (* SSSP oracle runs; set-up time takes their median *)
}

(* A hold size of the form 3·2^k sits mid-way between two mound depths,
   so the leaf row the queue is created with is a third empty. *)
let full = { hold_size = 3 lsl 15; side = 256; oracle_reps = 15 }
let smoke = { hold_size = 3 lsl 10; side = 32; oracle_reps = 1 }

let timed f =
  let t0 = Trace.now () in
  let r = f () in
  (r, Workload.seconds_of_ns (Trace.now () - t0))

(* [reps] runs of [f]: the last result and the median time of the runs
   the host stole least from. *)
let median_timed reps f =
  let rec go i acc last =
    if i = reps then
      (Option.get last, Workload.median (Steal.least_stolen acc))
    else
      let s0 = Steal.ticks () in
      let r, dt = timed f in
      go (i + 1) ((dt, Steal.ticks () - s0) :: acc) (Some r)
  in
  go 0 [] None

(* --- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }
let us ns = ns /. 1000.
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let end_to_end s (p : Workload.phase) =
  [
    m (s ^ ".work_per_s") p.rate "1/s";
    m (s ^ ".p50_us") (us p.p50_ns) "us";
    m (s ^ ".p99_us") (us p.p99_ns) "us";
    m (s ^ ".live_mb") p.live_mb "MB";
  ]

(* [u] is the untraced reference phase, [t] the traced phase. *)
let per_layer s (u : Workload.phase) (t : Workload.phase) =
  let tr = Option.get t.trace in
  let calls k = fi tr.calls.(k) in
  let timed = Trace.timed and other = Trace.other in
  let o = u.ops and steps = fi u.steps in
  let calls_u = fi u.calls in
  let retries = fi (o.insert_retries + o.extract_retries + o.lock_spins) in
  let per_call n = ratio (fi n) calls_u in
  let p name v unit = m (s ^ "." ^ name) v unit in
  [
    p "op.calls" (calls timed) "count";
    p "op.busy_ns" (ratio (fi tr.busy_ns.(timed)) (calls timed)) "ns";
    p "op.self_ns" (ratio (fi tr.self_ns.(timed)) (calls timed)) "ns";
    p "op.p99_us" (us (Hist.quantile tr.timed_hist 0.99)) "us";
    p "op.p999_us" (us (Hist.quantile tr.timed_hist 0.999)) "us";
    p "step.busy_ns"
      (ratio (fi (tr.busy_ns.(timed) + tr.busy_ns.(other))) (fi tr.steps))
      "ns";
    p "step.self_ns"
      (ratio (fi (tr.self_ns.(timed) + tr.self_ns.(other))) (fi tr.steps))
      "ns";
    p "extract.empty_frac" (per_call u.empty) "fraction";
    p "extract.stale_frac" u.stale_frac "fraction";
    p "ops.insert_retries" (per_call o.insert_retries) "1/call";
    p "ops.extract_retries" (per_call o.extract_retries) "1/call";
    p "ops.helps" (per_call o.helps) "1/call";
    p "ops.lock_spins" (per_call o.lock_spins) "1/call";
    p "ops.near_misses" (per_call o.livelock_near_misses) "1/call";
    p "ops.root_fallbacks" (per_call o.root_fallbacks) "1/call";
    p "ops.useful_frac" (ratio calls_u (calls_u +. retries)) "fraction";
    p "gc.minor_words_per_op" (ratio u.minor_words steps) "words";
    p "gc.promoted_words_per_op" (ratio u.promoted_words steps) "words";
    p "gc.minor_collections" (ratio (fi u.minor_gcs) u.seconds) "1/s";
    p "gc.major_collections" (ratio (fi u.major_gcs) u.seconds) "1/s";
    p "gc.pause_frac" (ratio (fi tr.gc_ns) (2. *. t.seconds *. 1e9)) "fraction";
    p "gc.pause_max_us" (us (fi tr.gc_max_ns)) "us";
    p "gc.in_op_frac" (ratio (fi tr.gc_in_op_ns) (fi tr.gc_ns)) "fraction";
    p "tree.depth" (fi u.tree.depth) "levels";
    p "tree.nonempty_frac" u.tree.nonempty_frac "fraction";
    p "tree.avg_list_len" u.tree.avg_list_len "elements";
    p "trace.overhead_frac" (1. -. ratio t.rate u.rate) "fraction";
    p "trace.lost_events" (fi tr.lost_events) "count";
  ]

(* --- provenance ---------------------------------------------------------- *)

let provenance ~commit ~workload ~seed ~seconds ~trace ~smoke =
  let g = Gc.get () in
  let env k = Option.value (Sys.getenv_opt k) ~default:"(unset)" in
  List.iter
    (fun (k, v) -> Printf.printf "# %-18s %s\n" (k ^ ":") v)
    [
      ("commit", commit);
      ("dune profile", Build_info.profile);
      ("OCAMLRUNPARAM", env "OCAMLRUNPARAM");
      ( "Gc.get ()",
        Printf.sprintf
          "minor_heap_size=%d words, space_overhead=%d, max_overhead=%d, \
           window_size=%d, custom_major_ratio=%d"
          g.minor_heap_size g.space_overhead g.max_overhead g.window_size
          g.custom_major_ratio );
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("domains used", "2 (main + 1 spawned)");
      ("ocaml", Sys.ocaml_version);
      ("host", Unix.gethostname ());
      ("workload", workload ^ if smoke then " (smoke size)" else "");
      ( "seed",
        Printf.sprintf "%d (default %d, held-out %d)" seed default_seed
          held_out_seed );
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", if trace then "1 (per-layer run)" else "0 (end-to-end run)");
      ("op timer", "CLOCK_MONOTONIC via bechamel.monotonic_clock");
      ( "deadline clock",
        "Runtime.Real.monotonic_ns (Unix.gettimeofday), deadlines only" );
    ]

(* --- runs --------------------------------------------------------------- *)

type run = {
  metrics : metric list;
  notes : string list; (* printed before the metrics *)
  attempted : int;
  failed : int;
  errors : string list;
}

let add_phase run name (p : Workload.phase) ms =
  let note =
    Printf.sprintf "# %-18s %d of %d windows kept (least steal)"
      (name ^ (if p.trace = None then "" else " traced") ^ ":")
      p.kept p.windows
  in
  {
    metrics = run.metrics @ ms;
    notes = run.notes @ [ note ];
    attempted = run.attempted + p.calls;
    failed = run.failed + p.failed;
    errors = run.errors @ p.errors;
  }

let empty_run =
  { metrics = []; notes = []; attempted = 0; failed = 0; errors = [] }

(* A measurement of one structure in one mode, advanced an episode at a
   time. *)
type job = {
  step : unit -> unit;
  finished : unit -> bool;
  result : unit -> Workload.phase;
}

(* Episodes of all jobs in turn until each has spent its time, so every
   structure samples the whole run. *)
let rec round_robin jobs =
  match List.filter (fun j -> not (j.finished ())) jobs with
  | [] -> ()
  | pending ->
      List.iter (fun j -> j.step ()) pending;
      round_robin jobs

(* Set-up time is the program's part of set-up only: the per-episode
   queue creation (with hold's pre-fill), and the SSSP oracle over
   [Mound.Seq_int]. Input generation is the benchmark's own code and is
   not counted. *)
let run_workload ~sizes ~workload ~seed ~seconds ~trace =
  (* [make (module Q) ~traced ~target] builds the job of one structure;
     [oracle_s] is the median oracle time *)
  let oracle_s, make =
    match workload with
    | "hold" ->
        let inp = Workload.hold_input seed ~size:sizes.hold_size in
        ( 0.,
          fun (module Q : Workload.QUEUE) ~traced ~target ->
            let module W = Workload.Make (Q) in
            let a = W.hold_acc ~traced ~target in
            {
              step = (fun () -> W.hold a inp);
              finished = (fun () -> W.finished a);
              result = (fun () -> W.result a);
            } )
    | "sssp" ->
        let g = Inputs.grid seed ~side:sizes.side in
        let oracle, oracle_s =
          median_timed sizes.oracle_reps (fun () -> Inputs.dijkstra g)
        in
        let s = Workload.sssp_state g in
        ( oracle_s,
          fun (module Q : Workload.QUEUE) ~traced ~target ->
            let module W = Workload.Make (Q) in
            let a = W.acc ~traced ~target ~windows:1 in
            {
              step = (fun () -> W.sssp a s oracle);
              finished = (fun () -> W.finished a);
              result = (fun () -> W.result a);
            } )
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  (* the end-to-end run measures each structure untraced; the per-layer
     run measures each untraced (the reference) and traced, half as long *)
  let modes = if trace then [ false; true ] else [ false ] in
  let target = seconds /. fi (List.length Queues.all * List.length modes) in
  let jobs =
    List.map
      (fun (module Q : Workload.QUEUE) ->
        ( Q.name,
          List.map (fun traced -> make (module Q) ~traced ~target) modes ))
      Queues.all
  in
  round_robin (List.concat_map snd jobs);
  let run, setup =
    List.fold_left
      (fun (run, setup) (name, js) ->
        match List.map (fun j -> j.result ()) js with
        | [ p ] ->
            (add_phase run name p (end_to_end name p), setup +. p.setup_s)
        | [ u; t ] ->
            ( add_phase (add_phase run name u []) name t (per_layer name u t),
              setup )
        | _ -> assert false)
      (empty_run, oracle_s) jobs
  in
  if trace then
    let costs = List.map (fun (n, v, u) -> m n v u) (Unit_costs.all ()) in
    { run with metrics = costs @ run.metrics }
  else { run with metrics = m "setup_s" setup "s" :: run.metrics }

(* --- output --------------------------------------------------------------- *)

let json_string s = "\"" ^ String.escaped s ^ "\""

let print_result run =
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) run.metrics in
  let errors =
    run.errors
    @ List.map (fun x -> "metric " ^ x.name ^ " is not a finite number") bad
  in
  List.iter print_endline run.notes;
  List.iter
    (fun x -> Printf.printf "%-28s %.6g %s\n" x.name x.value x.unit)
    run.metrics;
  List.iter (fun e -> Printf.printf "ORACLE FAILED: %s\n" e) errors;
  let metric x =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
      (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value
       else "null")
      (json_string x.unit)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    (errors = []) run.attempted run.failed
    (String.concat ", " (List.map metric run.metrics));
  errors = []

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and smoke_size = ref false
  and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " hold | sssp");
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf " input seed (default %d)" default_seed );
      ("--seconds", Arg.Set_float seconds, " timed seconds for the whole run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end, 1: per-layer metrics");
      ("--smoke", Arg.Set smoke_size, " tiny inputs, for the benchmark's test");
      ( "--commit",
        Arg.Set_string commit,
        " commit recorded in the provenance block" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "hold"; "sssp" ]) then begin
    prerr_endline "--workload must be hold or sssp";
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  provenance ~commit:!commit ~workload:!workload ~seed:!seed
    ~seconds:!seconds ~trace ~smoke:!smoke_size;
  let sizes = if !smoke_size then smoke else full in
  let run =
    run_workload ~sizes ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
  in
  if not (print_result run) then exit 1
