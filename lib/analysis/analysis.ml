(** AST-based static analyzer: entry points and engine composition.

    Drives both engines over a set of sources: the token lint
    ({!Lint_rules}) and the Parsetree analyses ({!Lock_order},
    {!Publication}, {!Helping}, {!Layout}, and the {!Dataflow}-powered
    {!Aba_risk} and {!Atomicity}), merging their findings through the
    {e same} waiver machinery — a [lint: allow] comment with a reason
    silences an AST finding on its covered lines exactly as it silences
    a token finding, and waiver hygiene (reason required, stale waivers
    rejected) is judged against the union of both engines' findings.

    Cross-module facts (the call graph, transitive effects) need the
    whole file set at once, so the primary entry is {!scan_files};
    {!scan_tree} feeds it every [.ml] under a root. Interface files get
    the token engine only. Files in exempt paths ([runtime], [sim],
    [baselines]) are still parsed and summarized — their definitions
    ({!Backoff.Make.exponential}) must be linkable — but produce no
    AST findings of their own. *)

module Summary = Summary
module Callgraph = Callgraph
module Frontend = Frontend
module Mutate = Mutate
module Killmatrix = Killmatrix

type finding = Lint_rules.finding = {
  file : string;
  line : int;
  rule : string;
  msg : string;
}

let pp_finding = Lint_rules.pp_finding

(* The single registry every consumer derives from: [repro lint --rule]
   completion, [--list-rules] output, the README rule table (CI greps
   each name against it), and the engine split below. Adding a rule
   means adding a row here — nothing else can drift. *)
type engine = Ast | Token

let rule_table : (string * engine * string) list =
  [
    ("lock-order", Ast, "lock acquired above an already-held ancestor: inversion deadlock");
    ("lock-leak", Ast, "path returns with an acquired lock never released");
    ("stale-publish", Ast, "CASes back a value read from the shared structure without re-validation");
    ("post-publish-mutation", Ast, "plain field write through a record already published to other threads");
    ("static-retry", Ast, "call-graph CAS retry cycle reaching neither helping nor backoff");
    ("static-deadline", Ast, "unbounded retry cycle that never consults a deadline");
    ("aba-risk", Ast, "CAS expected value from an un-revalidated read of a recycled location");
    ("atomicity", Ast, "plain set stores a value computed from the same location's atomic read");
    ("layout", Ast, "adjacent hot fields share a cache line across CAS-performing functions");
    ("parse", Ast, "source does not parse; AST analyses skipped for the file");
    ("boundary", Token, "direct OS/clock/domain primitive where the Runtime functor is required");
    ("mutable-atomic", Token, "mutable record field in concurrent code that should be Atomic.t");
    ("dirty-spin", Token, "loop re-reading a dirty flag without helping the marked node");
    ("cas-discard", Token, "CAS result discarded: failure path never observed");
    ("retry-no-backoff", Token, "retry loop without a backoff call");
    ("deadline-blind", Token, "retry loop that never checks a deadline or until bound");
    ("alloc-in-retry", Token, "fresh allocation inside a CAS retry loop");
    ("format", Token, "tab/trailing-whitespace/final-newline hygiene");
    ("waiver", Token, "lint: allow marker malformed, reasonless, or stale");
  ]

let rule_doc name =
  List.find_map
    (fun (n, _, d) -> if n = name then Some d else None)
    rule_table

let static_rules =
  List.filter_map
    (fun (n, e, _) -> if e = Ast then Some n else None)
    rule_table

let token_rules =
  List.filter_map
    (fun (n, e, _) -> if e = Token then Some n else None)
    rule_table

(* The AST findings for a set of implementation sources, keyed by file.
   Exempt paths contribute summaries but never findings. *)
let static_findings (files : (string * string) list) :
    (string, finding list) Hashtbl.t =
  let parse_errors = ref [] in
  let parsed =
    List.filter_map
      (fun (path, src) ->
        if Filename.check_suffix path ".mli" then None
        else
          match Frontend.parse ~path src with
          | Ok p -> Some p
          | Error f ->
              parse_errors := f :: !parse_errors;
              None)
      files
  in
  let fns = List.concat_map Summary.of_parsed parsed in
  let cg = Callgraph.build fns in
  let all =
    Lock_order.scan cg @ Publication.scan cg @ Helping.scan cg
    @ Aba_risk.scan cg @ Atomicity.scan cg @ Layout.scan parsed cg
    @ List.rev !parse_errors
  in
  (* nested functions are walked both standalone and inline in their
     host; identical findings collapse *)
  let all = List.sort_uniq compare all in
  let byfile = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace byfile f.file
        (f :: (Hashtbl.find_opt byfile f.file |> Option.value ~default:[])))
    all;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace byfile k (List.rev v))
    (Hashtbl.copy byfile);
  byfile

(* One defect, one finding: when both engines flag the same file:line,
   the token rule and its AST sibling describe the same problem from two
   vantage points — keep the AST finding (it names the protocol) and
   drop the token one. Pairings are explicit so unrelated co-located
   findings still both surface. *)
let sibling_rules =
  [
    ("retry-no-backoff", [ "static-retry"; "static-deadline" ]);
    ("deadline-blind", [ "static-deadline"; "static-retry" ]);
    ("dirty-spin", [ "static-retry"; "aba-risk" ]);
    ("cas-discard", [ "atomicity"; "aba-risk"; "stale-publish" ]);
  ]

let dedupe_tokens ~(extra : finding list) (raw : Lint_rules.raw) :
    Lint_rules.raw =
  {
    raw with
    Lint_rules.raw_base =
      List.filter
        (fun (f : finding) ->
          match List.assoc_opt f.rule sibling_rules with
          | None -> true
          | Some asts ->
              not
                (List.exists
                   (fun (g : finding) ->
                     g.file = f.file && g.line = f.line
                     && List.mem g.rule asts)
                   extra))
        raw.Lint_rules.raw_base;
  }

let scan_files ?(merge_siblings = true) (files : (string * string) list) :
    finding list =
  let statics = static_findings files in
  List.concat_map
    (fun (path, src) ->
      let raw = Lint_rules.scan_raw ~path src in
      let extra =
        Hashtbl.find_opt statics path |> Option.value ~default:[]
      in
      let raw = if merge_siblings then dedupe_tokens ~extra raw else raw in
      Lint_rules.apply_waivers ~path raw ~extra)
    files

let scan ~path src = scan_files [ (path, src) ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let scan_file path = scan_files [ (path, read_file path) ]

(** Both engines over every [.ml]/[.mli] under the roots, linked as one
    program: cross-module effect propagation spans all roots. *)
let scan_trees roots : finding list =
  let files =
    List.concat_map Lint_rules.files_under roots
    |> List.sort compare
    |> List.map (fun p -> (p, read_file p))
  in
  scan_files files

let scan_tree root = scan_trees [ root ]

(** Mutant × rule kill matrix of [mutants] over the pristine [context]
    file set — the composition {!Killmatrix} itself cannot perform from
    below the library's main module. The matrix scans {e without}
    sibling merging: the merge is presentation-level (one defect, one
    finding for the human reader), while the matrix asks which rules
    {e detect} a mutant — a token rule deduped into its AST sibling at
    the same line still fired, and its kill is credited. Waivers apply
    as in the merged scan. *)
let killmatrix ~context mutants =
  Killmatrix.run ~scan:(scan_files ~merge_siblings:false) ~context mutants
