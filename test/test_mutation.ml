(* The mutation tier: the committed kill matrix is the certificate that
   the static-analysis suite actually detects the defect classes it
   claims to — and this suite is the regression guard on that
   certificate.

   Three layers:

   - mound-mutation/1 artifact hygiene: the emitter's document survives
     a print/parse round trip, and [validate] rejects every tampered
     redundancy (count, killed, kill_rate, rule_kills, status ↔
     killed_by) — a hand-edited matrix cannot quietly misreport its own
     kill rate.

   - the committed baseline (bench/baseline/MUTATION_matrix.json):
     validates, carries at least 30 mutants, no target rule silent, and
     every hand-seeded mutant class from [mutant_static.ml] re-derived
     by a catalog operator and killed by the rule that kills the
     hand-seeded fixture.

   - the live regression guard: regenerate the matrix from the current
     sources and compare against the baseline — the kill rate must not
     drop and no rule with baseline kills may fall silent. The static
     matrix is deterministic, so these are exact comparisons, not
     tolerances. Dynamic-twin escalation is the slow part; it runs only
     under MUTATION_FULL=1 (the @mutation alias declares the env var,
     so flipping it re-runs the tier).

   cwd is _build/default/test under `dune runtest` but the project root
   under `dune exec test/test_mutation.exe`; source-dependent cases
   probe for the tree and skip silently when it is not there, exactly
   like test_analysis's shipped-tree case — the @mutation alias, which
   declares (source_tree ../lib), is where the guard is enforced. *)

let baseline_path () =
  let rel = "bench/baseline/MUTATION_matrix.json" in
  if Sys.file_exists (Filename.concat ".." rel) then Filename.concat ".." rel
  else rel

let lib_root () =
  if Sys.file_exists "lib/core" then Some "lib"
  else if Sys.file_exists "../lib/core" then Some "../lib"
  else None

let full = Sys.getenv_opt "MUTATION_FULL" <> None

(* ---- mound-mutation/1 artifact hygiene --------------------------------- *)

(* A tiny synthetic matrix: one killed mutant, one survivor with a
   mapped twin, built through the real Killmatrix plumbing with an
   injected scanner keyed on the substituted source. *)
let fake_context = [ ("lib/core/f.ml", "PRISTINE") ]

let fake_scan files =
  if List.exists (fun (_, s) -> s = "KILLED-MUTANT") files then
    [
      {
        Lint_rules.file = "lib/core/f.ml";
        line = 3;
        rule = "atomicity";
        msg = "lost update";
      };
    ]
  else []

let fake_mutant ~id ~op ~src =
  {
    Analysis.Mutate.m_id = id;
    m_op = op;
    m_file = "lib/core/f.ml";
    m_line = 3;
    m_note = "synthetic";
    m_src = src;
  }

let fake_matrix () =
  Analysis.Killmatrix.run ~scan:fake_scan ~context:fake_context
    [
      fake_mutant ~id:"demote-rmw:f.ml:3" ~op:"demote-rmw" ~src:"KILLED-MUTANT";
      fake_mutant ~id:"swap-lock-order:f.ml:3" ~op:"swap-lock-order"
        ~src:"SURVIVING-MUTANT";
    ]

let fake_doc () = Harness.Mutation_json.doc (fake_matrix ()) []

let test_round_trip () =
  let doc = fake_doc () in
  (match Harness.Mutation_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emitted doc invalid: %s" e);
  let doc' = Harness.Bench_json.parse (Harness.Bench_json.to_string doc) in
  (match Harness.Mutation_json.validate doc' with
  | Ok () -> ()
  | Error e -> Alcotest.failf "round-tripped doc invalid: %s" e);
  let rows = Harness.Mutation_json.rows_of doc' in
  Alcotest.(check int) "rows survive the trip" 2 (List.length rows);
  let killed =
    List.find
      (fun r -> r.Harness.Mutation_json.mr_id = "demote-rmw:f.ml:3")
      rows
  in
  Alcotest.(check string) "kill recorded" "killed"
    killed.Harness.Mutation_json.mr_status;
  Alcotest.(check (list string))
    "killing rule recorded" [ "atomicity" ]
    killed.Harness.Mutation_json.mr_killed_by;
  let survivor =
    List.find
      (fun r -> r.Harness.Mutation_json.mr_id = "swap-lock-order:f.ml:3")
      rows
  in
  (* escalation not run: the survivor carries its mapped twin *)
  Alcotest.(check string) "survivor status" "survived"
    survivor.Harness.Mutation_json.mr_status;
  Alcotest.(check (option string))
    "mapped twin carried"
    (Some "lock-inversion-deadlock")
    survivor.Harness.Mutation_json.mr_twin

let test_malformed () =
  (match Harness.Bench_json.parse "{ not json" with
  | exception Harness.Bench_json.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage parsed");
  match Harness.Mutation_json.validate (Harness.Bench_json.parse "{}") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty object validated"

(* Every redundant field is cross-checked: tamper with each in turn and
   validate must reject. *)
let tamper name f =
  let doc = fake_doc () in
  let doc' = f doc in
  match Harness.Mutation_json.validate doc' with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "tampered %s validated" name

let rec set_field k v = function
  | Harness.Bench_json.Obj kvs ->
      Harness.Bench_json.Obj
        (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
  | j ->
      ignore (set_field k v (Harness.Bench_json.Obj []));
      j

let test_tamper () =
  tamper "count" (set_field "count" (Harness.Bench_json.Num 99.));
  tamper "killed" (set_field "killed" (Harness.Bench_json.Num 2.));
  tamper "kill_rate" (set_field "kill_rate" (Harness.Bench_json.Num 1.));
  tamper "rule_kills" (set_field "rule_kills" (Harness.Bench_json.Arr []));
  tamper "schema" (set_field "schema" (Harness.Bench_json.Str "mound-lint/1"));
  (* flip the killed row's status without touching killed_by *)
  tamper "status" (fun doc ->
      match doc with
      | Harness.Bench_json.Obj _ -> (
          match Harness.Bench_json.member "mutants" doc with
          | Some (Harness.Bench_json.Arr ms) ->
              set_field "mutants"
                (Harness.Bench_json.Arr
                   (List.map
                      (fun m ->
                        match Harness.Bench_json.member "id" m with
                        | Some (Harness.Bench_json.Str "demote-rmw:f.ml:3") ->
                            set_field "status"
                              (Harness.Bench_json.Str "survived") m
                        | _ -> m)
                      ms))
                doc
          | _ -> doc)
      | j -> j)

(* ---- the committed baseline -------------------------------------------- *)

(* Each hand-seeded defect class in mutant_static.ml, as the (operator,
   killing rule) pair that re-derives it mechanically. The baseline must
   contain at least one killed mutant per pair — the seeded fixtures and
   the generated mutants certify the same rule from two directions. *)
let seeded_classes =
  [
    ("Lock_inverted_static", "swap-lock-order", "lock-order");
    ("Post_publish_mutation", "inplace-publish", "post-publish-mutation");
    ("Aliased_helper_dropped", "drop-help", "static-retry");
    ("Unstamped_publish", "drop-stamp", "aba-risk");
    ("Lost_update", "demote-rmw", "atomicity");
    ("Counter_drift", "demote-rmw", "atomicity");
    ("Unpadded_top_row", "drop-pad", "layout");
    ("Published_record_write", "inplace-publish", "post-publish-mutation");
  ]

let load_baseline () =
  let path = baseline_path () in
  let doc = Harness.Bench_json.load path in
  (match Harness.Mutation_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: baseline invalid: %s" path e);
  doc

let test_baseline_valid () =
  let doc = load_baseline () in
  let rows = Harness.Mutation_json.rows_of doc in
  Alcotest.(check bool)
    "at least 30 mutants" true
    (List.length rows >= 30);
  (* no target rule silent: every universe rule scores at least one kill *)
  let kills = Harness.Mutation_json.rule_kills_of doc in
  List.iter
    (fun rule ->
      match List.assoc_opt rule kills with
      | Some n when n >= 1 -> ()
      | Some _ -> Alcotest.failf "rule %s silent in the baseline" rule
      | None -> Alcotest.failf "rule %s missing from the baseline" rule)
    Analysis.Mutate.target_rules

let test_baseline_rederives_seeded () =
  let rows = Harness.Mutation_json.rows_of (load_baseline ()) in
  List.iter
    (fun (cls, op, rule) ->
      let hit =
        List.exists
          (fun r ->
            r.Harness.Mutation_json.mr_op = op
            && r.mr_status = "killed"
            && List.mem rule r.mr_killed_by)
          rows
      in
      if not hit then
        Alcotest.failf
          "seeded class %s: no %s mutant killed by %s in the baseline" cls op
          rule)
    seeded_classes

(* Every rule an operator targets is a registered analysis rule: a rule
   dropped from the registry cannot linger in the catalog, where the
   "no rule silent" guard would then demand kills it can never score. *)
let test_catalog_rules_registered () =
  let registered = List.map (fun (n, _, _) -> n) Analysis.rule_table in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " is a registered rule") true
        (List.mem rule registered))
    Analysis.Mutate.target_rules

(* ---- the live regression guard ----------------------------------------- *)

let context_roots root =
  List.map (Filename.concat root) [ "core"; "mcas"; "runtime" ]

let live_matrix root =
  let context =
    List.concat_map Lint_rules.files_under (context_roots root)
    |> List.sort compare
    |> List.map (fun p -> (p, Analysis.read_file p))
  in
  let targets =
    List.filter
      (fun (p, _) ->
        Filename.check_suffix p ".ml"
        && Filename.basename (Filename.dirname p) = "core")
      context
  in
  Analysis.killmatrix ~context (Analysis.Mutate.mutants targets)

let test_kill_rate_guard () =
  match lib_root () with
  | None -> () (* sandbox without sources; the @mutation alias has them *)
  | Some root ->
      let doc = load_baseline () in
      let base_rows = Harness.Mutation_json.rows_of doc in
      let base_rate =
        match Harness.Bench_json.member "kill_rate" doc with
        | Some (Harness.Bench_json.Num r) -> r
        | _ -> Alcotest.fail "baseline missing kill_rate"
      in
      let m = live_matrix root in
      let live_rows = List.length m.Analysis.Killmatrix.k_rows in
      Alcotest.(check bool)
        "live matrix has at least 30 mutants" true (live_rows >= 30);
      let live_rate = Analysis.Killmatrix.kill_rate m in
      if live_rate +. 1e-9 < base_rate then
        Alcotest.failf
          "kill rate regressed: %.3f live vs %.3f committed (re-record the \
           baseline only for an intentional rule or operator change)"
          live_rate base_rate;
      (* no rule with committed kills may fall silent *)
      let live_kills = Analysis.Killmatrix.rule_kills m in
      List.iter
        (fun (rule, n) ->
          if n > 0 then
            match List.assoc_opt rule live_kills with
            | Some ln when ln >= 1 -> ()
            | _ ->
                Alcotest.failf
                  "rule %s killed %d in the committed baseline but is now \
                   silent"
                  rule n)
        (Harness.Mutation_json.rule_kills_of doc);
      ignore base_rows

(* Survivor escalation against the dynamic twins: slow (DPOR + liveness
   runs), so MUTATION_FULL=1 only. Every operator with a mapped twin
   whose mutants survive must come back [escalated] or [benign] — a
   [gap] on a mapped twin means the twin table and the catalog drifted. *)
let test_escalation_full () =
  match lib_root () with
  | None -> ()
  | Some root ->
      if not full then ()
      else
        let m = live_matrix root in
        let es = Harness.Mutation_exp.escalate m in
        List.iter
          (fun (e : Harness.Mutation_exp.escalation) ->
            if e.e_status = "gap" && e.e_twin <> None then
              Alcotest.failf "mutant %s: mapped twin %s came back as a gap"
                e.e_id
                (Option.value e.e_twin ~default:"?"))
          es;
        (* the lock-inversion twin must actually deadlock: the class the
           swap operator plants is real and dynamically caught *)
        let swaps =
          List.filter
            (fun (e : Harness.Mutation_exp.escalation) ->
              e.e_twin = Some "lock-inversion-deadlock")
            es
        in
        if swaps <> [] then
          Alcotest.(check bool)
            "some lock-order swap escalates to a confirmed deadlock" true
            (List.exists
               (fun (e : Harness.Mutation_exp.escalation) ->
                 e.e_status = "escalated")
               swaps)

let () =
  Alcotest.run "mutation"
    [
      ( "artifact",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "malformed rejected" `Quick test_malformed;
          Alcotest.test_case "tampering rejected" `Quick test_tamper;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "valid, >=30 mutants, no rule silent" `Quick
            test_baseline_valid;
          Alcotest.test_case "hand-seeded classes re-derived" `Quick
            test_baseline_rederives_seeded;
          Alcotest.test_case "operator target rules registered" `Quick
            test_catalog_rules_registered;
        ] );
      ( "guard",
        [
          Alcotest.test_case "kill rate not regressed" `Slow
            test_kill_rate_guard;
          Alcotest.test_case "survivors escalate (MUTATION_FULL)" `Slow
            test_escalation_full;
        ] );
    ]
