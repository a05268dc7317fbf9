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

(* ---- retry loops ------------------------------------------------------- *)

(* The helping discipline is judged by the AST rule [static-retry]
   (test_analysis). The token engine still recognizes CAS call sites for
   [alloc-in-retry]: record labels and counter fields named [cas] are not
   calls, so a recursive allocator without a real CAS is no retry
   loop. *)
let test_cas_recognition () =
  let alloc fs =
    List.filter (fun f -> f.Lint_rules.rule = "alloc-in-retry") fs
  in
  check_count "field assignment is no cas" 0
    (alloc
       (scan "lib/core/x.ml"
          "let rec reset c =\n\
          \  let a = Array.make 2 0 in\n\
          \  c.cas <- 0;\n\
          \  reset a\n"));
  check_count "record label is no cas" 0
    (alloc
       (scan "lib/core/x.ml"
          "let rec snap c =\n\
          \  let a = Array.make 2 0 in\n\
          \  snap { gets = c.gets; cas = 0; a }\n"));
  check_count "type field is no cas" 0
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
  (* baselines are exempt, as from static-retry *)
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

(* ---- one engine per defect --------------------------------------------- *)

(* Each defect has one rule in one engine, so the merged scan reports
   it once with no merging step: a republished shared read is the AST
   rule's alone, and the token engine says nothing about it. Unrelated
   co-located findings still both surface. *)
let test_one_finding_per_defect () =
  let src =
    "let mark q =\n\
    \  let root = M.get q in\n\
    \  ignore (M.cas q root root)\n"
  in
  check_count "token engine silent" 0 (scan "lib/core/x.ml" src);
  let merged = Analysis.scan ~path:"lib/core/x.ml" src in
  check_count "one finding for the one defect" 1 merged;
  Alcotest.(check string) "the AST rule reports it" "stale-publish"
    (List.hd merged).Lint_rules.rule;
  (* a boundary breach and a lost update are two defects, two findings *)
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

(* [mutable-atomic] is a token rule with no AST counterpart: the mutable
   field behind an Atomic.t is reported once, at its declaration line —
   the merged scan neither drops nor duplicates it. *)
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

(* The registry must be duplicate-free — the table is what
   [--list-rules] and the README derive from. *)
let test_rule_registry_consistent () =
  let names = List.map (fun (n, _, _) -> n) Analysis.rule_table in
  Alcotest.(check int) "registry names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let readme () = List.find_opt Sys.file_exists [ "README.md"; "../README.md" ]

(* The lines of a README block between [<!-- tag:begin -->] and
   [<!-- tag:end -->]. *)
let readme_block path tag =
  let lines = String.split_on_char '\n' (Analysis.read_file path) in
  let rec block inside acc = function
    | [] -> List.rev acc
    | l :: rest ->
        if l = "<!-- " ^ tag ^ ":begin -->" then block true acc rest
        else if l = "<!-- " ^ tag ^ ":end -->" then List.rev acc
        else block inside (if inside then l :: acc else acc) rest
  in
  block false [] lines

(* Table rows of a block: the lines opening with a backquoted name. *)
let table_rows lines =
  List.filter (fun l -> String.length l > 2 && String.sub l 0 3 = "| `") lines

(* The README rules block is derived from the registry: one row per
   rule, in registry order, with the same engine and description. A
   rule added, removed or reworded without its row fails here. *)
let test_readme_rules_table () =
  match readme () with
  | None -> () (* sandbox without the docs; the test stanza depends on it *)
  | Some path ->
      let expected =
        List.map
          (fun (n, e, d) ->
            Printf.sprintf "| `%s` | %s | %s |" n
              (match e with Analysis.Ast -> "AST" | Analysis.Token -> "token")
              d)
          Analysis.rule_table
      in
      Alcotest.(check (list string))
        "README rows match the registry" expected
        (table_rows (readme_block path "rules"))

(* The README operators block lists the mutation catalog ([repro mutate
   --list-ops]) by name, row for row in catalog order. *)
let test_readme_operators_table () =
  match readme () with
  | None -> ()
  | Some path ->
      let name_of row =
        match String.split_on_char '`' row with
        | _ :: name :: _ -> name
        | _ -> row
      in
      Alcotest.(check (list string))
        "README operator rows match the catalog" Analysis.Mutate.op_names
        (List.map name_of (table_rows (readme_block path "operators")))

(* Whole-file waivers are reserved for the modules the README's
   allow-file block names: the set of [lint: allow-file] files under
   [lib/] must equal it, so it cannot grow silently. *)
let test_readme_allow_file_set () =
  let lib = List.find_opt Sys.file_exists [ "lib"; "../lib" ] in
  match (readme (), lib) with
  | None, _ | _, None -> ()
  | Some path, Some lib ->
      let strip_root p =
        (* report paths as [lib/...], wherever the tree was found *)
        let n = String.length lib in
        "lib" ^ String.sub p n (String.length p - n)
      in
      let actual =
        Lint_rules.files_under lib
        |> List.filter (fun p ->
               Filename.check_suffix p ".ml"
               && (Lint_rules.strip (Analysis.read_file p))
                    .Lint_rules.file_waived)
        |> List.map strip_root |> List.sort compare
      in
      let documented =
        readme_block path "allow-file"
        |> List.filter_map (fun l ->
               match String.split_on_char '`' l with
               | _ :: p :: _ when String.starts_with ~prefix:"lib/" p -> Some p
               | _ -> None)
        |> List.sort compare
      in
      Alcotest.(check (list string))
        "allow-file modules match the README list" documented actual

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
     AST-level finding (lf_mound's static-retry waivers). Source may live
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
      ( "retry-loops",
        [
          Alcotest.test_case "cas recognition" `Quick test_cas_recognition;
          Alcotest.test_case "alloc-in-retry" `Quick test_alloc_in_retry;
        ] );
      ( "mutable-atomic",
        [ Alcotest.test_case "heuristic" `Quick test_mutable_atomic ] );
      ("format", [ Alcotest.test_case "rules" `Quick test_format ]);
      ( "engines",
        [
          Alcotest.test_case "one finding per defect" `Quick
            test_one_finding_per_defect;
          Alcotest.test_case "mutable-atomic unpaired" `Quick
            test_mutable_atomic_unpaired;
          Alcotest.test_case "rule registry consistent" `Quick
            test_rule_registry_consistent;
          Alcotest.test_case "README rules table matches registry" `Quick
            test_readme_rules_table;
          Alcotest.test_case "README operators table matches catalog" `Quick
            test_readme_operators_table;
          Alcotest.test_case "README allow-file set matches tree" `Quick
            test_readme_allow_file_set;
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
