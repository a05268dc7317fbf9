(* Deterministic schedule exploration in the simulator: every structure
   is run under many seeded interleavings with invariant and conservation
   checks after each. This is the closest thing to a model checker in the
   suite — failures replay exactly from their seed. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seeds = List.init 12 (fun i -> Int64.of_int (1000 + (7 * i)))

type subject = {
  name : string;
  linearizable_extract : bool;
  maker : Harness.Pq.maker;
}

let subjects =
  let open Harness.Pq.On_sim in
  [
    { name = "mound_lf"; linearizable_extract = true; maker = mound_lf };
    { name = "mound_lock"; linearizable_extract = true; maker = mound_lock };
    (* not monotone: Hunt's in-limbo bottom value, see test_concurrent *)
    { name = "hunt"; linearizable_extract = false; maker = hunt };
    { name = "skiplist"; linearizable_extract = false; maker = skiplist };
    { name = "skiplist_lock"; linearizable_extract = false;
      maker = skiplist_lock };
    { name = "coarse"; linearizable_extract = true; maker = coarse };
    { name = "stm_heap"; linearizable_extract = true; maker = stm_heap };
  ]

let threads = 6
let per = 120

(* mixed insert/extract under many schedules *)
let mixed_schedules subject () =
  List.iter
    (fun seed ->
      let q = subject.maker.make ~capacity:(threads * per * 2) in
      let extracted = Array.make threads [] in
      let body tid =
        for i = 0 to per - 1 do
          q.insert ((((tid * per) + i) * 2) + 1);
          if Sim.Sched.rand_int 3 > 0 then
            match q.extract_min () with
            | Some v -> extracted.(tid) <- v :: extracted.(tid)
            | None -> ()
        done
      in
      ignore (Sim.Sched.run ~seed (Array.make threads body));
      check
        (Printf.sprintf "%s invariant (seed %Ld)" subject.name seed)
        true (q.check ());
      let got =
        Array.fold_left (fun a l -> List.rev_append l a) [] extracted
      in
      check_int
        (Printf.sprintf "%s conservation (seed %Ld)" subject.name seed)
        (threads * per)
        (List.length got + q.size ()))
    seeds

(* drain-only phase: per-thread monotone sequences for the linearizable
   structures, under every seed *)
let drain_schedules subject () =
  List.iter
    (fun seed ->
      let n = 600 in
      let q = subject.maker.make ~capacity:(2 * n) in
      Sim.Sched.seed_ambient seed;
      let rng = Prng.create seed in
      let inserted = Array.init n (fun _ -> Prng.int rng 10_000) in
      Array.iter q.insert inserted;
      let got = Array.make threads [] in
      let body tid =
        let rec go () =
          match q.extract_min () with
          | Some v ->
              got.(tid) <- v :: got.(tid);
              go ()
          | None -> ()
        in
        go ()
      in
      ignore (Sim.Sched.run ~seed (Array.make threads body));
      let all = Array.fold_left (fun a l -> List.rev_append l a) [] got in
      check
        (Printf.sprintf "%s multiset (seed %Ld)" subject.name seed)
        true
        (List.sort compare all = List.sort compare (Array.to_list inserted));
      if subject.linearizable_extract then
        Array.iter
          (fun l ->
            let rec noninc = function
              | [] | [ _ ] -> true
              | a :: (b :: _ as r) -> a >= b && noninc r
            in
            check
              (Printf.sprintf "%s monotone (seed %Ld)" subject.name seed)
              true (noninc l))
          got)
    seeds

(* heavier adversarial run for the two mound variants on the preemptive
   (oversubscribed) niagara2 profile: 32 threads on 8 cores with stalls *)
let oversubscribed_mounds () =
  List.iter
    (fun (subject : subject) ->
      let q = subject.maker.make ~capacity:100_000 in
      let t = 32 and ops = 40 in
      let extracted = Atomic.make 0 in
      let body tid =
        for i = 0 to ops - 1 do
          q.insert ((tid * 1000) + i);
          if i land 1 = 0 then
            match q.extract_min () with
            | Some _ -> Atomic.incr extracted
            | None -> ()
        done
      in
      let profile = { Sim.Profile.niagara2 with hw_threads = 16 } in
      ignore (Sim.Sched.run ~profile ~seed:321L (Array.make t body));
      check (subject.name ^ " invariant oversubscribed") true (q.check ());
      check_int
        (subject.name ^ " conservation oversubscribed")
        (t * ops)
        (Atomic.get extracted + q.size ()))
    (List.filter (fun s -> s.name = "mound_lf" || s.name = "mound_lock") subjects)

(* Regression: the lock-based skiplist once livelocked under this exact
   deterministic schedule (constant-pause try-lock retries re-aligning
   forever); randomized backoff must keep it terminating. *)
let skiplist_lock_livelock_regression () =
  let module SL = Baselines.Skiplist_lock_pq.Make (Sim.Runtime) (Mound.Int_ord) in
  Sim.Sched.seed_ambient 7L;
  let q = SL.create () in
  let rng = Prng.create 24L in
  for _ = 1 to 1024 do
    SL.insert q (Prng.int rng (1 lsl 30))
  done;
  let body _tid =
    for _ = 1 to 384 do
      if Sim.Sched.rand_int 2 = 0 then
        SL.insert q (Sim.Sched.rand_int (1 lsl 30))
      else ignore (SL.extract_min q)
    done
  in
  let r = Sim.Sched.run ~profile:Sim.Profile.x86 ~seed:7L (Array.make 4 body) in
  check "terminates" true (r.span > 0);
  check "still sorted" true (SL.check q)

(* Regression: an extract that claims a node whose insert has linked
   level 0 but not yet its upper levels finds nothing to cut up there;
   the inserter then links the removed node in above level 0, and every
   later insert that picks it as a predecessor fails validation and
   retries forever. The policy forces that interleaving — thread 0
   inserts until its first link lands, thread 1 extracts until a
   try-lock on one of thread 0's locks fails, then thread 0 finishes —
   and a second run of inserts under a virtual-time watchdog must
   complete. Node heights are random, so the scenario is replayed over
   a fixed range of seeds: every one whose inserted node is taller than
   one level used to wedge. *)
let skiplist_lock_partial_link_regression () =
  let module SL = Baselines.Skiplist_lock_pq.Make (Sim.Runtime) (Mound.Int_ord) in
  for seed = 1 to 16 do
    let seed = Int64.of_int seed in
    let q = SL.create () in
    let linked = ref false and blocked = ref false in
    let on_commit ~tid ~cell:_ ~kind ~wrote =
      match (tid, kind) with
      | 0, Sim.Sched.Write -> linked := true
      | 1, Sim.Sched.Cas when not wrote -> blocked := true
      | _ -> ()
    in
    let policy runnable =
      let want = if !linked && not !blocked then 1 else 0 in
      if Array.exists (fun (t, _) -> t = want) runnable then want
      else fst runnable.(0)
    in
    let got = ref None in
    ignore
      (Sim.Sched.run ~seed ~policy ~on_commit
         [| (fun _ -> SL.insert q 10); (fun _ -> got := SL.extract_min q) |]);
    let r =
      Sim.Sched.run ~seed ~watchdog:2_000_000
        [| (fun _ -> for k = 1 to 8 do SL.insert q (10 + k) done) |]
    in
    check_int (Printf.sprintf "no wedged inserter (seed %Ld)" seed) 0
      (List.length r.wedged);
    check_int
      (Printf.sprintf "conservation (seed %Ld)" seed)
      9
      (SL.size q + Option.fold ~none:0 ~some:(fun _ -> 1) !got);
    check "still sorted" true (SL.check q)
  done

(* An extract that runs while an insert is mid-link must not claim the
   half-linked node. The policy runs thread 0's insert until its first
   link lands, then thread 1's whole extract, which must come back
   empty; once the insert completes, the key is extractable. Should the
   extract claim the node and then block on one of thread 0's locks,
   the policy hands control back to thread 0, so a regression fails the
   assertions instead of spinning. Seeds vary the node height. *)
let skiplist_lock_skips_half_linked () =
  let module SL = Baselines.Skiplist_lock_pq.Make (Sim.Runtime) (Mound.Int_ord) in
  for seed = 1 to 8 do
    let seed = Int64.of_int seed in
    let q = SL.create () in
    let linked = ref false and blocked = ref false in
    let on_commit ~tid ~cell:_ ~kind ~wrote =
      match (tid, kind) with
      | 0, Sim.Sched.Write -> linked := true
      | 1, Sim.Sched.Cas when not wrote -> blocked := true
      | _ -> ()
    in
    let policy runnable =
      let want = if !linked && not !blocked then 1 else 0 in
      if Array.exists (fun (t, _) -> t = want) runnable then want
      else fst runnable.(0)
    in
    let got = ref (Some 0) in
    ignore
      (Sim.Sched.run ~seed ~policy ~on_commit
         [| (fun _ -> SL.insert q 10); (fun _ -> got := SL.extract_min q) |]);
    Alcotest.(check (option int))
      (Printf.sprintf "half-linked node skipped (seed %Ld)" seed)
      None !got;
    Alcotest.(check (option int))
      (Printf.sprintf "extractable once linked (seed %Ld)" seed)
      (Some 10) (SL.extract_min q)
  done

(* Liveness with duplicate keys: three threads insert from a four-key
   range and extract at random, over many seeded schedules, under a
   virtual-time watchdog. No thread may wedge, and every inserted key is
   either extracted or still queued. *)
let skiplist_lock_duplicate_storm () =
  let module SL = Baselines.Skiplist_lock_pq.Make (Sim.Runtime) (Mound.Int_ord) in
  let t = 3 and ops = 40 in
  List.iter
    (fun seed ->
      let q = SL.create () in
      let taken = Array.make t 0 in
      let body tid =
        for i = 0 to ops - 1 do
          SL.insert q (i mod 4);
          if Sim.Sched.rand_int 2 = 0 && SL.extract_min q <> None then
            taken.(tid) <- taken.(tid) + 1
        done
      in
      let r = Sim.Sched.run ~seed ~watchdog:2_000_000 (Array.make t body) in
      check_int (Printf.sprintf "no wedged thread (seed %Ld)" seed) 0
        (List.length r.wedged);
      check_int
        (Printf.sprintf "conservation (seed %Ld)" seed)
        (t * ops)
        (Array.fold_left ( + ) 0 taken + SL.size q);
      check (Printf.sprintf "still sorted (seed %Ld)" seed) true (SL.check q))
    seeds

(* extract_many and extract_approx on the LF mound across schedules *)
let lf_extensions_schedules () =
  let module M = Mound.Lf.Make (Sim.Runtime) (Mound.Int_ord) in
  List.iter
    (fun seed ->
      let q = M.create () in
      Sim.Sched.seed_ambient seed;
      let rng = Prng.create seed in
      let n = 400 in
      let inserted = Array.init n (fun _ -> Prng.int rng 10_000) in
      Array.iter (M.insert q) inserted;
      let got = Array.make threads [] in
      let body tid =
        let rec go () =
          match M.extract_many q with
          | [] -> (
              match M.extract_approx q with
              | Some v ->
                  got.(tid) <- [ v ] :: got.(tid);
                  go ()
              | None -> ())
          | b ->
              got.(tid) <- b :: got.(tid);
              go ()
        in
        go ()
      in
      ignore (Sim.Sched.run ~seed (Array.make threads body));
      let batches = Array.to_list got |> List.concat in
      List.iter
        (fun b -> check "batch sorted" true (b = List.sort compare b))
        batches;
      check "union complete" true
        (List.sort compare (List.concat batches)
        = List.sort compare (Array.to_list inserted));
      check "invariant" true (M.check q))
    seeds

let () =
  let per_subject mk suffix =
    List.map (fun s -> Alcotest.test_case (s.name ^ suffix) `Quick (mk s)) subjects
  in
  Alcotest.run "sim schedules"
    [
      ("mixed", per_subject mixed_schedules " mixed x12 seeds");
      ("drain", per_subject drain_schedules " drain x12 seeds");
      ( "adversarial",
        [
          Alcotest.test_case "oversubscribed mounds" `Quick
            oversubscribed_mounds;
          Alcotest.test_case "lf extensions across schedules" `Quick
            lf_extensions_schedules;
          Alcotest.test_case "skiplist_lock livelock regression" `Quick
            skiplist_lock_livelock_regression;
          Alcotest.test_case "skiplist_lock partial-link regression" `Quick
            skiplist_lock_partial_link_regression;
          Alcotest.test_case "skiplist_lock skips a half-linked node" `Quick
            skiplist_lock_skips_half_linked;
          Alcotest.test_case "skiplist_lock duplicate-key storm" `Quick
            skiplist_lock_duplicate_storm;
        ] );
    ]
