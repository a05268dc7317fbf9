(** Tree-wide lint driver: token rules and AST analyses together.

    Usage: [lint.exe DIR...] — scans every [.ml]/[.mli] under each DIR
    (default [lib]) with both engines linked as one program: the token
    lint ({!Lint_rules}) plus the Parsetree analyses ({!Analysis}:
    lock-order, publication safety, helping discipline v2, and the
    dataflow rules aba-risk / atomicity / layout), their findings
    merged through the same waiver machinery. Exits nonzero if
    anything is flagged. Wired into the default [dune runtest] via the
    [@lint] alias, so a direct [Stdlib.Atomic] use outside the runtime,
    a child-before-parent lock acquisition, or a retry loop that
    neither helps nor backs off fails the build, not a review. To see
    one rule alone, use [repro lint --rule R]. *)

let () =
  let roots =
    match List.tl (Array.to_list Sys.argv) with
    | _ :: _ as dirs -> dirs
    | [] -> [ "lib" ]
  in
  let findings = Analysis.scan_trees roots in
  List.iter
    (fun f -> Format.printf "%a@." Analysis.pp_finding f)
    findings;
  match findings with
  | [] ->
      Format.printf "lint: %s clean@." (String.concat " " roots)
  | fs ->
      Format.printf "lint: %d finding(s)@." (List.length fs);
      exit 1
