(** ABA / version-discipline analysis (rule [aba-risk]).

    The mound's CAS protocol survives slot recycling for two reasons:
    every published record folds a bumped sequence counter into the
    compared word ([seq = cur.seq + 1]), and every retry loop
    re-validates the dirty/locked/version bits it read before CASing.
    A CAS that compares a {e bare} payload read — no counter in the
    fresh value, no re-validation between the read and the CAS — on a
    location that other code also overwrites is the textbook ABA
    victim: the location can pass through A → B → A between read and
    CAS and the stale compare still succeeds (cf. the single-word-CAS
    deque literature this repo's PAPERS.md carries; the flat-array
    refactor of ROADMAP item 2 is exactly where the stamp is easiest to
    lose).

    Per CAS-family site, via the {!Dataflow} pass:

    - the {e expected} argument must carry a [Shared_read] fact whose
      location key matches the CAS target's key, still un-revalidated
      (no [.dirty] / [.seq] / [.locked] inspection since the read);
    - the {e fresh} argument must be unstamped — not a record literal
      (or a variable bound to one) bumping a version-vocabulary field;
    - the location key must be {e recycled elsewhere}: some other
      function in the call graph also CASes or sets a location of the
      same key ({!Summary.fwrites}) — a location with a single writer
      cannot ABA under it.

    Substrate files (the {!Mcas} descriptor machinery) are skipped:
    their internal read–CAS loops compare descriptor identities, where
    freshness-by-allocation is the defence, and every mound-level
    protocol above them is analyzed on its own. Exempt paths (runtime,
    sim, baselines) are skipped as everywhere else. Expected values
    that are parameters or call results are untracked (no fact), an
    under-approximation shared with {!Publication}. *)

let rule = "aba-risk"

(* location key -> paths of functions writing it *)
let writers_table (cg : Callgraph.t) =
  let tbl : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun (f : Summary.fn) ->
      List.iter
        (fun k ->
          let cur = Hashtbl.find_opt tbl k |> Option.value ~default:[] in
          Hashtbl.replace tbl k (String.concat "." f.fpath :: cur))
        f.fwrites)
    (Callgraph.fns cg);
  tbl

(* 0-based (loc, expected, fresh) triples among the Nolabel args. *)
let cas_triples = function
  | "cas" | "compare_and_set" -> [ (0, 1, 2) ]
  | "dcss" -> [ (2, 3, 4) ]
  | "dcas" -> [ (0, 1, 2); (3, 4, 5) ]
  | _ -> []

let scan_fn writers (f : Summary.fn) : Lint_rules.finding list =
  let findings = ref [] in
  let self = String.concat "." f.fpath in
  let recycled_elsewhere key =
    match Hashtbl.find_opt writers key with
    | Some ws -> List.exists (fun w -> w <> self) ws
    | None -> false
  in
  let stamped ctx e =
    match Dataflow.fact_of ctx e with
    | Some (Dataflow.Fresh_rec { stamped }) -> stamped
    | _ -> false
  in
  let h_cas ctx ~line ~op nargs =
    List.iter
      (fun (li, ei, fi) ->
        match
          (List.nth_opt nargs li, List.nth_opt nargs ei, List.nth_opt nargs fi)
        with
        | Some loc, Some expected, Some fresh -> (
            match (Dataflow.loc_key loc, Dataflow.fact_of ctx expected) with
            | Some key, Some (Dataflow.Shared_read sr)
              when sr.key = key && (not sr.revalidated)
                   && (not (stamped ctx fresh))
                   && recycled_elsewhere key ->
                findings :=
                  {
                    Lint_rules.file = f.ffile;
                    line;
                    rule;
                    msg =
                      Printf.sprintf
                        "%s compares the bare read of %s from line %d: no \
                         version counter in the fresh value and no \
                         dirty/seq re-validation since the read, while %s \
                         is also overwritten elsewhere — ABA-prone; fold \
                         a bumped seq into the compared record"
                        op key sr.rline key;
                  }
                  :: !findings
            | _ -> ())
        | _ -> ())
      (cas_triples op)
  in
  Dataflow.run { Dataflow.no_hooks with h_cas } f.fbody;
  List.rev !findings

let scan (cg : Callgraph.t) : Lint_rules.finding list =
  let writers = writers_table cg in
  Array.to_list (Callgraph.fns cg)
  |> List.concat_map (fun (f : Summary.fn) ->
         if
           Lint_rules.helping_exempt_path f.ffile
           || Callgraph.is_substrate_file cg f.ffile
         then []
         else scan_fn writers f)
