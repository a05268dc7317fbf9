(** Unit tests for the {!Lint_rules} engine.

    The shipped tree being clean is enforced by the [dune runtest] rule
    in [bin/dune]; here we pin the engine's behavior on fixtures — in
    particular that a direct [Stdlib.Atomic] use in [lib/core] fails,
    and that comments, strings, waivers, and the functor-constraint
    idiom do not. *)

let scan path src = Lint_rules.scan ~path src

let rules fs = List.map (fun f -> f.Lint_rules.rule) fs

let boundary fs =
  List.filter (fun f -> f.Lint_rules.rule = "boundary") fs

let check_count what n fs = Alcotest.(check int) what n (List.length fs)

(* ---- boundary rule ----------------------------------------------------- *)

let test_core_stdlib_atomic () =
  (* The acceptance fixture: direct Stdlib.Atomic in lib/core fails. *)
  let fs = scan "lib/core/bad.ml" "let x = Stdlib.Atomic.make 0\n" in
  check_count "one finding" 1 fs;
  let f = List.hd fs in
  Alcotest.(check string) "rule" "boundary" f.Lint_rules.rule;
  Alcotest.(check int) "line" 1 f.Lint_rules.line

let test_forbidden_idents () =
  let flagged src = boundary (scan "lib/core/x.ml" src) <> [] in
  Alcotest.(check bool) "bare Atomic" true (flagged "let v = Atomic.make 0\n");
  Alcotest.(check bool) "Domain" true (flagged "let d = Domain.spawn f\n");
  Alcotest.(check bool) "Random" true (flagged "let r = Random.int 5\n");
  Alcotest.(check bool) "gettimeofday" true
    (flagged "let t = Unix.gettimeofday ()\n");
  (* prefixed paths go through a runtime functor: fine *)
  Alcotest.(check bool) "R.Atomic ok" false (flagged "let v = R.Atomic.get a\n");
  Alcotest.(check bool) "Runtime.Atomic ok" false
    (flagged "let v = Runtime.Real.Atomic.get a\n");
  Alcotest.(check bool) "domainslib-ish ident ok" false
    (flagged "let x = my_Domain.foo\n")

let test_exempt_paths () =
  let src = "let x = Stdlib.Atomic.make 0\nlet d = Domain.self ()\n" in
  check_count "lib/sim exempt" 0 (boundary (scan "lib/sim/mem.ml" src));
  check_count "lib/runtime exempt" 0
    (boundary (scan "lib/runtime/real.ml" src));
  check_count "nested path still checked" 2
    (boundary (scan "lib/core/sub/x.ml" src))

let test_comments_and_strings () =
  check_count "comment" 0
    (boundary (scan "lib/core/x.ml" "(* Stdlib.Atomic.make *)\nlet x = 1\n"));
  check_count "nested comment" 0
    (boundary
       (scan "lib/core/x.ml" "(* a (* Domain.spawn *) b *)\nlet x = 1\n"));
  check_count "string" 0
    (boundary (scan "lib/core/x.ml" "let s = \"Random.int\"\n"));
  check_count "string with escapes" 0
    (boundary (scan "lib/core/x.ml" "let s = \"\\\"Domain.\\\"\"\n"));
  check_count "comment containing string with close" 0
    (boundary
       (scan "lib/core/x.ml" "(* \"*)\" Unix.gettimeofday *)\nlet x = 1\n"));
  (* a char literal must not open a string *)
  check_count "char literal" 1
    (boundary
       (scan "lib/core/x.ml" "let c = '\"'\nlet x = Atomic.make 0\n"))

let test_waivers () =
  check_count "same-line waiver" 0
    (boundary
       (scan "lib/core/x.ml"
          "let x = Stdlib.Atomic.make 0 (* lint: allow *)\n"));
  check_count "line-above waiver" 0
    (boundary
       (scan "lib/core/x.ml"
          "(* lint: allow — setup only *)\nlet x = Stdlib.Atomic.make 0\n"));
  check_count "waiver does not leak further" 1
    (boundary
       (scan "lib/core/x.ml"
          "(* lint: allow *)\nlet x = 1\nlet y = Domain.self ()\n"));
  check_count "file waiver" 0
    (boundary
       (scan "lib/core/x.ml"
          "(* lint: allow-file *)\nlet x = Stdlib.Atomic.make 0\n\
           let d = Domain.self ()\n"));
  (* a file waiver does not suppress format findings *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow-file — bench driver owns the clock *)\n\
       let t = Unix.gettimeofday () \n"
  in
  Alcotest.(check (list string)) "format survives" [ "format" ] (rules fs)

let test_waiver_hygiene () =
  (* a waiver must carry a reason *)
  let fs =
    scan "lib/core/x.ml" "(* lint: allow *)\nlet x = Stdlib.Atomic.make 0\n"
  in
  Alcotest.(check (list string)) "reasonless waiver" [ "waiver" ] (rules fs);
  (* a waiver must cover a live finding *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow — plenty of justification *)\nlet x = 1\n"
  in
  Alcotest.(check (list string)) "stale waiver" [ "waiver" ] (rules fs);
  (* reasoned and live: silent *)
  check_count "reasoned live waiver" 0
    (scan "lib/core/x.ml"
       "(* lint: allow — setup-only id source *)\n\
        let x = Stdlib.Atomic.make 0\n");
  (* reasonless file waiver *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow-file *)\nlet x = Stdlib.Atomic.make 0\n"
  in
  Alcotest.(check (list string)) "reasonless file waiver" [ "waiver" ]
    (rules fs);
  (* stale file waiver: nothing in the file to waive *)
  let fs =
    scan "lib/core/x.ml"
      "(* lint: allow-file — driver owns its domains *)\nlet x = 1\n"
  in
  Alcotest.(check (list string)) "stale file waiver" [ "waiver" ] (rules fs);
  (* the marker must lead the comment; prose mentioning it is inert *)
  let fs =
    scan "lib/core/x.ml"
      "(* see the lint: allow marker in the docs *)\n\
       let x = Stdlib.Atomic.make 0\n"
  in
  Alcotest.(check (list string)) "mid-comment marker inert" [ "boundary" ]
    (rules fs)

(* ---- helping-discipline rules ------------------------------------------ *)

let test_retry_no_backoff () =
  (* bodies indented 4: chunks split at indentation <= 2, the margin of
     a module body, exactly like the shipped sources *)
  let bare =
    "let rec push q v =\n\
    \    let cur = R.Atomic.get q in\n\
    \    if not (M.cas q cur (v :: cur)) then push q v\n"
  in
  Alcotest.(check (list string)) "bare retry flagged" [ "retry-no-backoff" ]
    (rules (scan "lib/core/x.ml" bare));
  let with_backoff =
    "let rec push q b v =\n\
    \    let cur = R.Atomic.get q in\n\
    \    if not (M.cas q cur (v :: cur)) then begin\n\
    \      B.exponential b;\n\
    \      push q b v\n\
    \    end\n"
  in
  (* backoff silences retry-no-backoff; what remains is the disjoint
     complement — the loop waits, but nothing bounds the wait *)
  Alcotest.(check (list string)) "backoff leaves only deadline-blind"
    [ "deadline-blind" ]
    (rules (scan "lib/core/x.ml" with_backoff));
  let with_help =
    "let rec push q v =\n\
    \    let cur = R.Atomic.get q in\n\
    \    if not (M.cas q cur (v :: cur)) then begin\n\
    \      help_complete q;\n\
    \      push q v\n\
    \    end\n"
  in
  check_count "helping silences" 0 (scan "lib/core/x.ml" with_help);
  (* non-recursive chunks are not retry loops *)
  check_count "straight-line cas fine" 0
    (scan "lib/core/x.ml" "let push q v =\n  if M.cas q [] [ v ] then 1 else 0\n");
  (* baselines reproduce published loops; helping rules do not apply *)
  check_count "baselines exempt" 0 (scan "lib/baselines/x.ml" bare)

let test_deadline_blind () =
  (* waiting without a bound: backoff satisfies retry-no-backoff but
     the loop can wait forever behind a dead peer *)
  let waiting =
    "let rec push q b v =\n\
    \    if M.cas q 0 v then ()\n\
    \    else begin\n\
    \      B.exponential b;\n\
    \      push q b v\n\
    \    end\n"
  in
  Alcotest.(check (list string)) "unbounded wait flagged"
    [ "deadline-blind" ]
    (rules (scan "lib/core/x.ml" waiting));
  (* consulting a deadline bounds the wait *)
  let bounded =
    "let rec push q b v deadline =\n\
    \    if expired ~deadline then Timeout\n\
    \    else if M.cas q 0 v then Ok ()\n\
    \    else begin\n\
    \      B.exponential b;\n\
    \      push q b v deadline\n\
    \    end\n"
  in
  check_count "deadline silences" 0 (scan "lib/core/x.ml" bounded);
  (* the _until operation family is the same vocabulary *)
  let until =
    "let rec push q b v d =\n\
    \    if M.cas q 0 v then Ok () else (B.exponential b; push_until q b v d)\n"
  in
  check_count "_until call silences" 0 (scan "lib/core/x.ml" until);
  (* disjoint from retry-no-backoff: a bare loop gets exactly one
     finding, the one whose remedy (back off first) comes first *)
  let bare =
    "let rec push q v =\n\
    \    if M.cas q 0 v then () else push q v\n"
  in
  Alcotest.(check (list string)) "bare loop is retry-no-backoff only"
    [ "retry-no-backoff" ]
    (rules (scan "lib/core/x.ml" bare));
  (* helping loops are bounded by global progress: exempt *)
  let helping =
    "let rec pull q =\n\
    \    if M.cas q 0 1 then () else (help_complete q; cpu_relax (); pull q)\n"
  in
  check_count "helping exempt" 0 (scan "lib/core/x.ml" helping);
  (* baselines keep their published shapes *)
  check_count "baselines exempt" 0 (scan "lib/baselines/x.ml" waiting);
  (* a reasoned waiver covers it like any other finding *)
  check_count "reasoned waiver silences" 0
    (scan "lib/core/x.ml"
       ("(* lint: allow — fixture: wait bounded by the test harness *)\n"
      ^ waiting))

let test_dirty_spin () =
  let spin =
    "let rec pull q =\n\
    \    let n = M.get q in\n\
    \    if n.dirty then pull q\n\
    \    else (n, B.exponential ())\n"
  in
  Alcotest.(check (list string)) "dirty re-test flagged" [ "dirty-spin" ]
    (rules (scan "lib/core/x.ml" spin));
  let helps =
    "let rec pull q =\n\
    \    let n = M.get q in\n\
    \    if n.dirty then (moundify q 1; pull q)\n\
    \    else n\n"
  in
  check_count "helping silences" 0 (scan "lib/core/x.ml" helps);
  (* [dirty = cur.dirty] in a record copy is not a test *)
  let copy =
    "let rec pull q =\n\
    \    let cur = M.get q in\n\
    \    ignore { list = cur.list; dirty = cur.dirty };\n\
    \    pull q\n"
  in
  Alcotest.(check bool) "record copy not a dirty test" false
    (List.mem "dirty-spin" (rules (scan "lib/core/x.ml" copy)))

let test_cas_discard () =
  Alcotest.(check (list string)) "ignore'd cas" [ "cas-discard" ]
    (rules (scan "lib/core/x.ml" "let reset q =\n  ignore (M.cas q 0 1)\n"));
  Alcotest.(check (list string)) "statement-position cas" [ "cas-discard" ]
    (rules
       (scan "lib/core/x.ml" "let f q r =\n  r := 1;\n  M.cas q 0 1\n"));
  check_count "branched-on cas fine" 0
    (scan "lib/core/x.ml" "let f q = if M.cas q 0 1 then 1 else 0\n");
  (* a CAS ending a sequence whose value is let-bound (or otherwise
     consumed) on a following line is not discarded: only the [;] on
     the preceding line is in sight when walking backwards, so the
     verdict must come from scanning forward to the binder *)
  check_count "let-bound sequence tail fine" 0
    (scan "lib/core/x.ml"
       "let f q r =\n\
       \  let ok =\n\
       \    r := 1;\n\
       \    M.cas q 0 1\n\
       \  in\n\
       \  ok\n");
  check_count "parenthesized condition tail fine" 0
    (scan "lib/core/x.ml"
       "let f q r =\n\
       \  if (r := 1;\n\
       \      M.cas q 0 1) then 1 else 0\n");
  (* but a mid-sequence CAS is still discarded even when a binder
     follows later *)
  Alcotest.(check (list string)) "mid-sequence cas still flagged"
    [ "cas-discard" ]
    (rules
       (scan "lib/core/x.ml"
          "let f q r =\n\
          \  let ok =\n\
          \    r := 1;\n\
          \    M.cas q 0 1;\n\
          \    r := 2\n\
          \  in\n\
          \  ok\n"));
  Alcotest.(check (list string)) "while-body tail still flagged"
    [ "cas-discard" ]
    (rules
       (scan "lib/core/x.ml"
          "let f q r =\n\
          \  while !r do\n\
          \    r := false;\n\
          \    M.cas q 0 1\n\
          \  done\n"));
  (* record labels and counter fields named [cas] are not calls *)
  check_count "field assignment fine" 0
    (scan "lib/core/x.ml" "let reset c =\n  c.cas <- 0\n");
  check_count "record label fine" 0
    (scan "lib/core/x.ml" "let snap c = { gets = c.gets; cas = c.cas }\n");
  check_count "type field fine" 0
    (scan "lib/core/x.ml" "type t = { gets : int; cas : int }\n")

let test_alloc_in_retry () =
  let alloc fs = List.filter (fun f -> f.Lint_rules.rule = "alloc-in-retry") fs in
  (* an array built on every failed attempt *)
  let hot =
    "let rec push q v =\n\
    \    let fresh = Array.make 4 v in\n\
    \    if M.cas q [] fresh then () else push q v\n"
  in
  check_count "array alloc in retry loop" 1 (alloc (scan "lib/core/x.ml" hot));
  (* a ref rebuilt per attempt *)
  let with_ref =
    "let rec push q v =\n\
    \    let cell = ref v in\n\
    \    if M.cas q [] cell then () else push q v\n"
  in
  check_count "ref alloc in retry loop" 1 (alloc (scan "lib/core/x.ml" with_ref));
  (* allocation hoisted before the loop: the blessed shape *)
  let hoisted =
    "let push q v =\n\
    \  let fresh = Array.make 4 v in\n\
    \  let rec go () = if M.cas q [] fresh then () else go () in\n\
    \  go ()\n"
  in
  check_count "hoisted alloc fine" 0 (alloc (scan "lib/core/x.ml" hoisted));
  (* fresh record literals are CAS arguments and must not be flagged *)
  let record =
    "let rec push q v =\n\
    \    let cur = M.get q in\n\
    \    if M.cas q cur { list = v :: cur.list; dirty = false } then ()\n\
    \    else push q v\n"
  in
  check_count "record literal fine" 0 (alloc (scan "lib/core/x.ml" record));
  (* a recursive chunk without a CAS is not a retry loop *)
  let no_cas =
    "let rec build n acc =\n\
    \    if n = 0 then acc else build (n - 1) (ref n :: acc)\n"
  in
  check_count "no cas, no finding" 0 (alloc (scan "lib/core/x.ml" no_cas));
  (* [int ref] in type position is not an allocation *)
  let type_pos =
    "let rec push (q : int ref M.t) v =\n\
    \    if M.cas q [] v then () else push q v\n"
  in
  check_count "ref type annotation fine" 0
    (alloc (scan "lib/core/x.ml" type_pos));
  (* a reasoned waiver silences it *)
  let waived =
    "let rec push q v =\n\
    \    (* lint: allow — rebuilt only when the observed value changed *)\n\
    \    let fresh = Array.make 4 v in\n\
    \    if M.cas q [] fresh then () else push q v\n"
  in
  check_count "waiver silences" 0 (alloc (scan "lib/core/x.ml" waived));
  (* baselines are exempt, as for the other helping-discipline rules *)
  check_count "baselines exempt" 0 (alloc (scan "lib/baselines/x.ml" hot))

let test_functor_constraint_idiom () =
  check_count "with type 'a Atomic.t" 0
    (boundary
       (scan "lib/core/x.mli"
          "include Runtime.S with type 'a Atomic.t = 'a R.Atomic.t\n"))

(* ---- mutable-record-behind-Atomic rule --------------------------------- *)

let test_mutable_atomic () =
  let fs =
    scan "lib/core/x.ml"
      "type node = { mutable next : int }\n\
       type t = { slot : node Atomic.t }\n"
  in
  (* the bare Atomic. is also flagged; look for the mutable finding *)
  Alcotest.(check bool) "flagged" true
    (List.exists (fun f -> f.Lint_rules.rule = "mutable-atomic") fs);
  let fs2 =
    scan "lib/core/x.ml"
      "type node = { mutable next : int }\nlet use (n : node) = n.next\n"
  in
  Alcotest.(check bool) "unpublished record fine" false
    (List.exists (fun f -> f.Lint_rules.rule = "mutable-atomic") fs2);
  let fs3 =
    scan "lib/core/x.ml"
      "type slot = { list : int list; dirty : bool }\n\
       type t = { root : slot A.t }\n"
  in
  Alcotest.(check bool) "immutable record fine" false
    (List.exists (fun f -> f.Lint_rules.rule = "mutable-atomic") fs3)

(* ---- format rules ------------------------------------------------------ *)

let test_format () =
  let fs = scan "lib/core/x.ml" "let x = 1 \nlet\ty = 2\nlet z = 3" in
  Alcotest.(check (list string))
    "three format findings"
    [ "format"; "format"; "format" ]
    (rules fs);
  Alcotest.(check (list int))
    "lines" [ 1; 2; 3 ]
    (List.map (fun f -> f.Lint_rules.line) fs);
  check_count "clean file" 0 (scan "lib/core/x.ml" "let x = 1\n")

(* ---- engine dedupe ------------------------------------------------------ *)

(* One defect, one finding: when the token engine and the AST engine
   flag the same file:line for sibling rules (cas-discard vs the
   protocol analyses), the merged scan keeps the AST finding — it names
   the protocol — and drops the token one. Unrelated co-located
   findings still both surface. *)
let test_sibling_dedupe () =
  let src =
    "let mark q =\n\
    \  let root = M.get q in\n\
    \  ignore (M.cas q root root)\n"
  in
  (* the token engine alone does flag the discarded CAS... *)
  check_count "token cas-discard fires alone" 1
    (List.filter
       (fun f -> f.Lint_rules.rule = "cas-discard")
       (scan "lib/core/x.ml" src));
  (* ...but the merged scan reports the one defect once, as the AST
     sibling *)
  let merged = Analysis.scan ~path:"lib/core/x.ml" src in
  check_count "one finding for the one defect" 1 merged;
  Alcotest.(check string) "the AST sibling wins" "stale-publish"
    (List.hd merged).Lint_rules.rule;
  (* unrelated rules co-located on one line are not siblings: a
     boundary breach and a lost update are two defects, two findings *)
  let two_defects =
    "let bump q =\n\
    \  let n = Atomic.get q in\n\
    \  Atomic.set q (n + 1)\n"
  in
  let merged = Analysis.scan ~path:"lib/core/x.ml" two_defects in
  check_count "boundary kept" 2
    (List.filter (fun f -> f.Lint_rules.rule = "boundary") merged);
  check_count "atomicity kept" 1
    (List.filter (fun f -> f.Lint_rules.rule = "atomicity") merged)

(* [mutable-atomic] has no AST sibling: the mutable field behind an
   Atomic.t is reported once, by the token rule, at its declaration
   line — the merged scan neither drops nor duplicates it. *)
let test_mutable_atomic_unpaired () =
  let src =
    "type slab = { mutable used : int; cap : int }\n\
     type t = { cell : slab Atomic.t }\n\n\
     let create () = Atomic.make { used = 0; cap = 8 }\n"
  in
  let merged = Analysis.scan ~path:"lib/core/x.ml" src in
  Alcotest.(check (list int))
    "one mutable-atomic finding, at the declaration" [ 1 ]
    (List.filter_map
       (fun f ->
         if f.Lint_rules.rule = "mutable-atomic" then Some f.Lint_rules.line
         else None)
       merged)

(* Every sibling pairing must reference registered rules of the right
   engine, and the registry itself must be duplicate-free — the table
   is what [--list-rules], the README and CI all derive from. *)
let test_rule_registry_consistent () =
  List.iter
    (fun (tok, asts) ->
      Alcotest.(check bool)
        (tok ^ " is a registered token rule")
        true
        (List.mem tok Analysis.token_rules);
      List.iter
        (fun a ->
          Alcotest.(check bool)
            (a ^ " is a registered AST rule")
            true
            (List.mem a Analysis.static_rules))
        asts)
    Analysis.sibling_rules;
  let names = List.map (fun (n, _, _) -> n) Analysis.rule_table in
  Alcotest.(check int) "registry names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* The README rules block is derived from the registry: one row per
   rule, in registry order, with the same engine and description. A
   rule added, removed or reworded without its row fails here. *)
let test_readme_rules_table () =
  let readme =
    List.find_opt Sys.file_exists [ "README.md"; "../README.md" ]
  in
  match readme with
  | None -> () (* sandbox without the docs; the test stanza depends on it *)
  | Some path ->
      let lines = String.split_on_char '\n' (Analysis.read_file path) in
      let rec block inside acc = function
        | [] -> List.rev acc
        | l :: rest ->
            if l = "<!-- rules:begin -->" then block true acc rest
            else if l = "<!-- rules:end -->" then List.rev acc
            else if inside && String.length l > 2 && String.sub l 0 3 = "| `"
            then block inside (l :: acc) rest
            else block inside acc rest
      in
      let expected =
        List.map
          (fun (n, e, d) ->
            Printf.sprintf "| `%s` | %s | %s |" n
              (match e with Analysis.Ast -> "AST" | Analysis.Token -> "token")
              d)
          Analysis.rule_table
      in
      Alcotest.(check (list string))
        "README rows match the registry" expected (block false [] lines)

(* ---- mound-lint/1 JSON -------------------------------------------------- *)

(* The [repro lint --json] document, validated the way the bench
   artifacts are: emit, self-validate, parse the emitted string back
   through the Bench_json parser, re-validate, and compare the decoded
   findings field by field. *)
let test_lint_json_roundtrip () =
  let findings =
    Analysis.scan ~path:"lib/core/x.ml"
      "let bump q =\n\
      \  let n = R.Atomic.get q in\n\
      \  R.Atomic.set q (n + 1)\n"
  in
  check_count "fixture yields a finding" 1 findings;
  let doc = Harness.Lint_json.doc ~roots:[ "lib" ] ~rule:None findings in
  (match Harness.Lint_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "emitted document invalid: %s" e);
  let reparsed = Harness.Bench_json.parse (Harness.Bench_json.to_string doc) in
  (match Harness.Lint_json.validate reparsed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reparsed document invalid: %s" e);
  Alcotest.(check bool) "findings survive the round trip" true
    (Harness.Lint_json.findings_of reparsed = findings);
  (* narrowed runs record the rule *)
  let narrowed =
    Harness.Lint_json.doc ~roots:[ "lib" ] ~rule:(Some "atomicity") findings
  in
  (match Harness.Lint_json.validate narrowed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "narrowed document invalid: %s" e);
  (* malformed documents are rejected: count drift, missing schema *)
  let tamper k v =
    match doc with
    | Harness.Bench_json.Obj kvs ->
        Harness.Bench_json.Obj
          (List.filter_map
             (fun (k', v') ->
               if k' = k then Option.map (fun v -> (k, v)) v
               else Some (k', v'))
             kvs)
    | _ -> assert false
  in
  Alcotest.(check bool) "count drift rejected" true
    (Result.is_error
       (Harness.Lint_json.validate
          (tamper "count" (Some (Harness.Bench_json.Num 99.)))));
  Alcotest.(check bool) "missing schema rejected" true
    (Result.is_error (Harness.Lint_json.validate (tamper "schema" None)))

(* ---- the shipped tree -------------------------------------------------- *)

let test_shipped_tree_clean () =
  (* Belt and braces: the runtest rule in bin/dune already enforces
     this, but running from the test binary keeps the guarantee even if
     the alias wiring regresses. Both engines, like [bin/lint.exe]: a
     token-only scan would misjudge as stale any waiver that covers an
     AST-level finding (stm's static-deadline waiver). Source may live
     elsewhere when built in a sandbox; skip silently if lib/ is not
     present. *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let fs = Analysis.scan_tree "lib" in
    List.iter
      (fun f -> Format.printf "%a@." Lint_rules.pp_finding f)
      fs;
    check_count "shipped lib/ clean" 0 fs
  end

let () =
  Alcotest.run "lint"
    [
      ( "boundary",
        [
          Alcotest.test_case "Stdlib.Atomic in lib/core fails" `Quick
            test_core_stdlib_atomic;
          Alcotest.test_case "forbidden idents" `Quick test_forbidden_idents;
          Alcotest.test_case "runtime and sim exempt" `Quick test_exempt_paths;
          Alcotest.test_case "comments and strings stripped" `Quick
            test_comments_and_strings;
          Alcotest.test_case "waivers" `Quick test_waivers;
          Alcotest.test_case "waiver hygiene" `Quick test_waiver_hygiene;
          Alcotest.test_case "functor constraint idiom" `Quick
            test_functor_constraint_idiom;
        ] );
      ( "helping",
        [
          Alcotest.test_case "retry-no-backoff" `Quick test_retry_no_backoff;
          Alcotest.test_case "deadline-blind" `Quick test_deadline_blind;
          Alcotest.test_case "dirty-spin" `Quick test_dirty_spin;
          Alcotest.test_case "cas-discard" `Quick test_cas_discard;
          Alcotest.test_case "alloc-in-retry" `Quick test_alloc_in_retry;
        ] );
      ( "mutable-atomic",
        [ Alcotest.test_case "heuristic" `Quick test_mutable_atomic ] );
      ("format", [ Alcotest.test_case "rules" `Quick test_format ]);
      ( "dedupe",
        [
          Alcotest.test_case "token/AST siblings deduped" `Quick
            test_sibling_dedupe;
          Alcotest.test_case "mutable-atomic unpaired" `Quick
            test_mutable_atomic_unpaired;
          Alcotest.test_case "rule registry consistent" `Quick
            test_rule_registry_consistent;
          Alcotest.test_case "README rules table matches registry" `Quick
            test_readme_rules_table;
        ] );
      ( "json",
        [
          Alcotest.test_case "mound-lint/1 round trip" `Quick
            test_lint_json_roundtrip;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shipped tree clean" `Quick
            test_shipped_tree_clean;
        ] );
    ]
