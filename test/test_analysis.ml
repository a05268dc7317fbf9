(** Unit tests for the {!Analysis} AST engines: per-rule fixtures
    (positive and negative), waiver interaction, the seeded
    {!Mutant_static} defects, and dynamic cross-checks of the same
    mutant code under the liveness and DPOR tiers.

    The shipped tree being clean under both engines is enforced by the
    [@lint] alias in [bin/dune]; here we pin engine behavior on
    fixtures the way [test_lint] does for the token rules. *)

let scan path src = Analysis.scan ~path src
let with_rule r fs = List.filter (fun f -> f.Analysis.rule = r) fs
let check_count what n fs = Alcotest.(check int) what n (List.length fs)

(* ---- lock-order -------------------------------------------------------- *)

(* The locking mound's primitives, distilled: an acquire loop that backs
   off (so helping-discipline stays quiet) and a plain release. *)
let lock_prims =
  "type lnode = { locked : bool; owner : int }\n\n\
   let set_lock slot =\n\
  \  let rec spin () =\n\
  \    let cur = R.Atomic.get slot in\n\
  \    if cur.locked then begin\n\
  \      R.cpu_relax ();\n\
  \      spin ()\n\
  \    end\n\
  \    else if\n\
  \      not (R.Atomic.compare_and_set slot cur { locked = true; owner = 0 })\n\
  \    then spin ()\n\
  \  in\n\
  \  spin ()\n\n\
   let unlock slot =\n\
  \  let cur = R.Atomic.get slot in\n\
  \  R.Atomic.set slot { cur with locked = false }\n\n"

let test_lock_order () =
  let inverted =
    lock_prims
    ^ "let insert t c =\n\
      \  let cslot = T.get_at t c in\n\
      \  let pslot = T.get_at t (c / 2) in\n\
      \  set_lock cslot;\n\
      \  set_lock pslot;\n\
      \  unlock pslot;\n\
      \  unlock cslot\n"
  in
  let fs = with_rule "lock-order" (scan "lib/core/x.ml" inverted) in
  check_count "child-before-parent flagged" 1 fs;
  let ordered =
    lock_prims
    ^ "let insert t c =\n\
      \  let pslot = T.get_at t (c / 2) in\n\
      \  let cslot = T.get_at t c in\n\
      \  set_lock pslot;\n\
      \  set_lock cslot;\n\
      \  unlock cslot;\n\
      \  unlock pslot\n"
  in
  check_count "parent-before-child fine" 0
    (with_rule "lock-order" (scan "lib/core/x.ml" ordered));
  (* siblings 2n / 2n+1 are unordered: the moundify shape *)
  let siblings =
    lock_prims
    ^ "let swap t n =\n\
      \  let lslot = T.get_at t (2 * n) in\n\
      \  let rslot = T.get_at t ((2 * n) + 1) in\n\
      \  set_lock lslot;\n\
      \  set_lock rslot;\n\
      \  unlock rslot;\n\
      \  unlock lslot\n"
  in
  check_count "siblings fine" 0
    (with_rule "lock-order" (scan "lib/core/x.ml" siblings))

let test_lock_leak () =
  let leaky =
    lock_prims
    ^ "let probe t c =\n\
      \  let cslot = T.get_at t c in\n\
      \  set_lock cslot;\n\
      \  if c > 1 then unlock cslot\n"
  in
  check_count "conditional release leaks" 1
    (with_rule "lock-leak" (scan "lib/core/x.ml" leaky));
  let balanced =
    lock_prims
    ^ "let probe t c =\n\
      \  let cslot = T.get_at t c in\n\
      \  set_lock cslot;\n\
      \  let v = read t c in\n\
      \  unlock cslot;\n\
      \  v\n"
  in
  check_count "balanced fine" 0
    (with_rule "lock-leak" (scan "lib/core/x.ml" balanced));
  (* a raising path needs no release *)
  let raising =
    lock_prims
    ^ "let probe t c =\n\
      \  let cslot = T.get_at t c in\n\
      \  set_lock cslot;\n\
      \  if c = 0 then invalid_arg \"probe\";\n\
      \  unlock cslot\n"
  in
  check_count "raising path fine" 0
    (with_rule "lock-leak" (scan "lib/core/x.ml" raising))

(* ---- publication safety ------------------------------------------------ *)

let test_stale_publish () =
  let bad =
    "let mark q =\n\
    \  let root = M.get q in\n\
    \  ignore (M.cas q root root)\n"
  in
  check_count "re-publishing a shared read flagged" 1
    (with_rule "stale-publish" (scan "lib/core/x.ml" bad));
  let fresh =
    "let mark q =\n\
    \  let root = M.get q in\n\
    \  ignore (M.cas q root { list = root.list; dirty = false })\n"
  in
  check_count "fresh copy fine" 0
    (with_rule "stale-publish" (scan "lib/core/x.ml" fresh))

let test_post_publish_mutation () =
  let bad =
    "let extract q =\n\
    \  let root = M.get q in\n\
    \  if M.cas q root root then root.list <- []\n"
  in
  check_count "mutation after publish flagged" 1
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" bad));
  let shared =
    "let bump q =\n\
    \  let n = M.get q in\n\
    \  n.count <- n.count + 1\n"
  in
  check_count "mutating a shared read flagged" 1
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" shared));
  let local =
    "let build v =\n\
    \  let n = { count = 0; v } in\n\
    \  n.count <- 1;\n\
    \  n\n"
  in
  check_count "mutating a local fresh record fine" 0
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" local))

(* A record boxed into an atomic cell at creation, whose mutable label
   is then bumped in place through the shared read: the in-place write
   is the defect, and it is the only finding. *)
let test_post_publish_boxed_record () =
  let src =
    "type slab = { mutable used : int; cap : int }\n\n\
     let create () = R.Atomic.make { used = 0; cap = 8 }\n\n\
     let claim cell =\n\
    \  let s = R.Atomic.get cell in\n\
    \  s.used <- s.used + 1\n"
  in
  Alcotest.(check (list (pair string int)))
    "one finding, on the in-place bump"
    [ ("post-publish-mutation", 7) ]
    (List.map
       (fun f -> (f.Analysis.rule, f.Analysis.line))
       (scan "lib/core/x.ml" src))

(* ---- clean twins ------------------------------------------------------- *)

(* Plain mutable state whose discipline is evident from the code: no
   rule of either engine may flag it. *)
let test_domain_local_clean () =
  let local =
    "let tally n =\n\
    \  let histo = Array.make 8 0 in\n\
    \  for i = 0 to n - 1 do\n\
    \    histo.(i mod 8) <- histo.(i mod 8) + 1\n\
    \  done;\n\
    \  Array.fold_left ( + ) 0 histo\n"
  in
  check_count "array that never leaves its function: clean" 0
    (scan "lib/core/x.ml" local)

(* Every access to the shared slot sits between [Mutex.lock] and
   [Mutex.unlock]: the read-modify-write is protected, so neither the
   atomicity nor the publication rules fire. The spawn and join are
   still direct [Domain] uses outside the runtime — the boundary rule
   reports those two lines and nothing else. *)
let test_locked_ledger_clean () =
  let locked =
    "let guarded n lock =\n\
    \  let ledger = Array.make 1 0 in\n\
    \  let doms =\n\
    \    Array.init n (fun _ ->\n\
    \        Domain.spawn (fun () ->\n\
    \            Mutex.lock lock;\n\
    \            ledger.(0) <- ledger.(0) + 1;\n\
    \            Mutex.unlock lock))\n\
    \  in\n\
    \  Array.iter Domain.join doms;\n\
    \  Mutex.lock lock;\n\
    \  let v = ledger.(0) in\n\
    \  Mutex.unlock lock;\n\
    \  v\n"
  in
  Alcotest.(check (list (pair string int)))
    "only the two Domain uses"
    [ ("boundary", 5); ("boundary", 10) ]
    (List.map
       (fun f -> (f.Analysis.rule, f.Analysis.line))
       (scan "lib/core/x.ml" locked))

(* ---- the MultiQueue idioms --------------------------------------------- *)

(* The relaxed front-end's two protocol disciplines, distilled the way
   [lock_prims] distills the locking mound's. The shipped multiqueue.ml
   itself is covered by the clean-tree assertion below (its disciplines
   hold, so both engines stay silent over it); these fixtures pin that
   the rules would actually fire if either discipline broke.

   Sticky locking uses a bare [bool R.Atomic.t] word — the CAS(false,
   true) acquire shape, a different summary-detection path from the
   locking mound's record-literal [locked = true] stores. *)
let mq_lock_prims =
  "let lock_cell l =\n\
  \  let rec spin () =\n\
  \    if not (R.Atomic.compare_and_set l false true) then begin\n\
  \      R.cpu_relax ();\n\
  \      spin ()\n\
  \    end\n\
  \  in\n\
  \  spin ()\n\n\
   let unlock_cell l = R.Atomic.set l false\n\n"

let test_multiqueue_sticky_lock () =
  let leaky =
    mq_lock_prims
    ^ "let extract_if_lucky l q =\n\
      \  lock_cell l;\n\
      \  if happy q then begin\n\
      \    let v = pop q in\n\
      \    unlock_cell l;\n\
      \    v\n\
      \  end\n\
      \  else None\n"
  in
  check_count "unhappy path leaks the cell lock" 1
    (with_rule "lock-leak" (scan "lib/core/x.ml" leaky));
  let balanced =
    mq_lock_prims
    ^ "let extract_always l q =\n\
      \  lock_cell l;\n\
      \  let v = if happy q then pop q else None in\n\
      \  unlock_cell l;\n\
      \  v\n"
  in
  check_count "release on every path fine" 0
    (with_rule "lock-leak" (scan "lib/core/x.ml" balanced))

(* The cached-top word: a peeker must never CAS back the very value it
   read (the cache stops tracking the backing queue the moment the CAS
   succeeds over a concurrent extract); the unlock path publishes a
   freshly recomputed head instead. *)
let test_multiqueue_top_cache () =
  let republish =
    "let refresh_top cell =\n\
    \  let cached = R.Atomic.get cell in\n\
    \  ignore (R.Atomic.compare_and_set cell cached cached)\n"
  in
  check_count "republishing the cached top flagged" 1
    (with_rule "stale-publish" (scan "lib/core/x.ml" republish));
  let recompute =
    "let refresh_top cell q =\n\
    \  let cached = R.Atomic.get cell in\n\
    \  ignore (R.Atomic.compare_and_set cell cached (head q))\n"
  in
  check_count "publishing a recomputed head fine" 0
    (with_rule "stale-publish" (scan "lib/core/x.ml" recompute))

(* ---- helping discipline v2 --------------------------------------------- *)

let test_static_retry () =
  let bare =
    "let rec push q v =\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = v :: cur.list; seq = cur.seq + 1 } then ()\n\
    \  else push q v\n"
  in
  check_count "bare retry flagged" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" bare));
  let with_backoff =
    "let rec push q v =\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = v :: cur.list; seq = cur.seq + 1 } then ()\n\
    \  else begin\n\
    \    R.cpu_relax ();\n\
    \    push q v\n\
    \  end\n"
  in
  check_count "backoff silences" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" with_backoff));
  (* helping recognized through an alias, not a name: the helper is
     bound as [restore] and called; the token heuristic never sees a
     helper-shaped identifier in the loop *)
  let aliased_called =
    "let finish q =\n\
    \  let cur = M.get q in\n\
    \  ignore (M.cas q cur { list = cur.list; dirty = false })\n\n\
     let rec pull q =\n\
    \  let restore = finish in\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = cur.list; dirty = cur.dirty } then ()\n\
    \  else begin\n\
    \    restore q;\n\
    \    pull q\n\
    \  end\n"
  in
  check_count "aliased helper silences" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" aliased_called));
  (* mutual recursion is a cycle too *)
  let mutual =
    "let rec ping q =\n\
    \  if M.cas q 0 1 then () else pong q\n\n\
     and pong q =\n\
    \  if M.cas q 1 0 then () else ping q\n"
  in
  Alcotest.(check bool) "mutual recursion flagged" true
    (with_rule "static-retry" (scan "lib/core/x.ml" mutual) <> []);
  (* exempt trees keep their published loop shapes *)
  check_count "baselines exempt" 0
    (with_rule "static-retry" (scan "lib/baselines/x.ml" bare))

let test_static_deadline () =
  (* the disjoint complement of static-retry: the loop backs off, so
     static-retry is silent, but nothing in its call graph bounds the
     wait *)
  let waiting =
    "let rec push q v =\n\
    \  if M.cas q 0 v then ()\n\
    \  else begin\n\
    \    R.cpu_relax ();\n\
    \    push q v\n\
    \  end\n"
  in
  check_count "unbounded wait flagged" 1
    (with_rule "static-deadline" (scan "lib/core/x.ml" waiting));
  check_count "static-retry stays silent on it" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" waiting));
  (* a deadline consulted directly silences it *)
  let bounded =
    "let rec push q v deadline =\n\
    \  if R.monotonic_ns () > deadline then false\n\
    \  else if M.cas q 0 v then true\n\
    \  else begin\n\
    \    R.cpu_relax ();\n\
    \    push q v deadline\n\
    \  end\n"
  in
  check_count "direct deadline silences" 0
    (with_rule "static-deadline" (scan "lib/core/x.ml" bounded));
  (* ... and one consulted through a callee the token engine cannot
     see: the loop's own chunk names no deadline, the call graph does *)
  let via_callee =
    "let out_of_time deadline =\n\
    \  R.monotonic_ns () > deadline\n\n\
     let give_up d =\n\
    \  out_of_time d\n\n\
     let rec push q v d =\n\
    \  if give_up d then false\n\
    \  else if M.cas q 0 v then true\n\
    \  else begin\n\
    \    R.cpu_relax ();\n\
    \    push q v d\n\
    \  end\n"
  in
  check_count "deadline through the call graph silences" 0
    (with_rule "static-deadline" (scan "lib/core/x.ml" via_callee));
  (* helping loops are exempt, as for static-retry *)
  let helping =
    "let finish q =\n\
    \  ignore (M.cas q cur { list = cur.list; dirty = false })\n\n\
     let rec pull q =\n\
    \  if M.cas q 0 1 then ()\n\
    \  else begin\n\
    \    R.cpu_relax ();\n\
    \    finish q;\n\
    \    pull q\n\
    \  end\n"
  in
  check_count "helping exempt" 0
    (with_rule "static-deadline" (scan "lib/core/x.ml" helping));
  (* exempt trees *)
  check_count "baselines exempt" 0
    (with_rule "static-deadline" (scan "lib/baselines/x.ml" waiting))

(* ---- aba-risk ---------------------------------------------------------- *)

let test_aba_risk () =
  (* the CAS compares the bare read while another function recycles the
     location: the ABA window the paper's seq stamp exists to close *)
  let bare =
    "let recycle q = R.Atomic.set q None\n\n\
     let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if not (R.Atomic.compare_and_set q cur (Some v)) then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "bare compared read over a recycled slot flagged" 1
    (with_rule "aba-risk" (scan "lib/core/x.ml" bare));
  (* folding a bumped version counter into the fresh value closes it *)
  let stamped =
    "let recycle q =\n\
    \  let cur = R.Atomic.get q in\n\
    \  ignore (R.Atomic.compare_and_set q cur { row = None; ver = cur.ver + 1 })\n\n\
     let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if\n\
    \    not (R.Atomic.compare_and_set q cur { row = Some v; ver = cur.ver + 1 })\n\
    \  then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "version stamp silences" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" stamped));
  (* re-validating the read's protocol bits before the CAS also counts *)
  let revalidated =
    "let recycle q = R.Atomic.set q None\n\n\
     let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if cur.dirty then publish q v\n\
    \  else if not (R.Atomic.compare_and_set q cur (Some v)) then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "dirty re-validation silences" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" revalidated));
  (* a location nothing else overwrites has no recycler to race *)
  let single_writer =
    "let rec publish q v =\n\
    \  let cur = R.Atomic.get q in\n\
    \  if not (R.Atomic.compare_and_set q cur (Some v)) then begin\n\
    \    R.cpu_relax ();\n\
    \    publish q v\n\
    \  end\n"
  in
  check_count "single-writer location fine" 0
    (with_rule "aba-risk" (scan "lib/core/x.ml" single_writer))

(* ---- atomicity --------------------------------------------------------- *)

let test_atomicity () =
  let lost =
    "let bump q =\n\
    \  let n = R.Atomic.get q in\n\
    \  R.Atomic.set q (n + 1)\n"
  in
  check_count "get-compute-set flagged" 1
    (with_rule "atomicity" (scan "lib/core/x.ml" lost));
  (* the primitive RMW linearizes the same update *)
  let rmw = "let bump q = ignore (R.Atomic.fetch_and_add q 1)\n" in
  check_count "fetch_and_add fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" rmw));
  (* storing a value unrelated to the location's own read is a plain
     overwrite, not a lost update *)
  let overwrite =
    "let reset q v =\n\
    \  let n = R.Atomic.get other in\n\
    \  ignore n;\n\
    \  R.Atomic.set q v\n"
  in
  check_count "unrelated store fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" overwrite));
  (* the mound's own unlock idiom is release-shaped and exempt *)
  let release =
    "let unlock s =\n\
    \  let cur = R.Atomic.get s in\n\
    \  R.Atomic.set s { cur with locked = false }\n"
  in
  check_count "lock release fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" release))

let test_atomicity_interprocedural () =
  (* the plain set lives in a callee; the caller hands it the location
     and a value computed from that location's read — the lost update
     spans the call and only the call graph can see it *)
  let split =
    "let store q v = R.Atomic.set q v\n\n\
     let bump q =\n\
    \  let n = R.Atomic.get q in\n\
    \  store q (n + 1)\n"
  in
  let fs = scan "lib/core/x.ml" split in
  let at = with_rule "atomicity" fs in
  (* the callee's own set stores an opaque parameter (not flagged); the
     call site is *)
  check_count "lost update through a callee flagged once" 1 at;
  Alcotest.(check bool) "finding names the callee" true
    (Analysis.Summary.contains_sub (List.hd at).Analysis.msg "store");
  (* same callee, but the caller passes a value unrelated to the
     location it hands over: nothing lost *)
  let unrelated =
    "let store q v = R.Atomic.set q v\n\n\
     let seed q v =\n\
    \  store q (v * 2)\n"
  in
  check_count "unrelated argument fine" 0
    (with_rule "atomicity" (scan "lib/core/x.ml" unrelated))

(* ---- layout ------------------------------------------------------------ *)

(* Two RMW-performing operations touching the record's hot fields: the
   contention precondition for a false-sharing flag. *)
let layout_ops =
  "let push t v =\n\
  \  ignore (R.Atomic.fetch_and_add t.word 1);\n\
  \  t.h.a <- v;\n\
  \  t.h.b <- t.h.b + 1\n\n\
   let pop t =\n\
  \  ignore (R.Atomic.fetch_and_add t.word 1);\n\
  \  t.h.b <- t.h.b + 1\n"

let test_layout () =
  let unpadded =
    "type hot = { mutable a : int; mutable b : int }\n\n" ^ layout_ops
  in
  check_count "adjacent hot fields under contention flagged" 1
    (with_rule "layout" (scan "lib/core/x.ml" unpadded));
  let padded =
    "type hot = { mutable a : int; pad : int array; mutable b : int }\n\n"
    ^ layout_ops
  in
  check_count "pad block between them silences" 0
    (with_rule "layout" (scan "lib/core/x.ml" padded));
  (* one toucher means no cross-core ping-pong: the reasoned-waiver
     story for single-owner records, here silent by construction *)
  let single_toucher =
    "type hot = { mutable a : int; mutable b : int }\n\n\
     let push t v =\n\
    \  ignore (R.Atomic.fetch_and_add t.word 1);\n\
    \  t.h.a <- v;\n\
    \  t.h.b <- t.h.b + 1\n"
  in
  check_count "single contended toucher fine" 0
    (with_rule "layout" (scan "lib/core/x.ml" single_toucher));
  (* touchers that never CAS/RMW are readers/sequential setup: silent *)
  let cold_touchers =
    "type hot = { mutable a : int; mutable b : int }\n\n\
     let init t v =\n\
    \  t.h.a <- v;\n\
    \  t.h.b <- v\n\n\
     let drain t =\n\
    \  t.h.a <- 0;\n\
    \  t.h.b <- 0\n"
  in
  check_count "no contention source fine" 0
    (with_rule "layout" (scan "lib/core/x.ml" cold_touchers))

(* ---- callgraph resolution through local module aliases ----------------- *)

let test_letmodule_alias_resolution () =
  (* a local [module A = Atomic] must still count as CAS-providing:
     the bare loop below is only a retry loop if A.compare_and_set is
     recognized through the alias *)
  let bare =
    "let rec push q v =\n\
    \  let module A = Atomic in\n\
    \  if A.compare_and_set q 0 v then () else push q v\n"
  in
  check_count "CAS through a local alias of the substrate seen" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" bare));
  (* a helper reached through a local alias of a nested module must
     resolve — the loop helps, so no finding *)
  let kept =
    "module Helpers = struct\n\
    \  let finish q =\n\
    \    let cur = M.get q in\n\
    \    ignore (M.cas q cur { list = cur.list; dirty = false })\n\
     end\n\n\
     let rec pull q =\n\
    \  let module H = Helpers in\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = cur.list; dirty = cur.dirty } then ()\n\
    \  else begin\n\
    \    H.finish q;\n\
    \    pull q\n\
    \  end\n"
  in
  check_count "helper through a local module alias silences" 0
    (with_rule "static-retry" (scan "lib/core/x.ml" kept));
  (* the twin that binds the alias but never calls the helper keeps
     the finding: resolution must not bleed into mere mention *)
  let dropped =
    "module Helpers = struct\n\
    \  let finish q =\n\
    \    let cur = M.get q in\n\
    \    ignore (M.cas q cur { list = cur.list; dirty = false })\n\
     end\n\n\
     let rec pull q =\n\
    \  let module H = Helpers in\n\
    \  ignore H.finish;\n\
    \  let cur = M.get q in\n\
    \  if M.cas q cur { list = cur.list; dirty = cur.dirty } then ()\n\
    \  else pull q\n"
  in
  check_count "uncalled aliased helper still flagged" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" dropped))

(* ---- waiver interaction ------------------------------------------------ *)

let test_waivers_cover_static_findings () =
  let bare body = "let rec push q v =\n" ^ body in
  ignore bare;
  let flagged =
    "let rec push q v =\n\
    \  if M.cas q 0 v then () else push q v\n"
  in
  check_count "unwaived" 1
    (with_rule "static-retry" (scan "lib/core/x.ml" flagged));
  let waived =
    "(* lint: allow — fixture loop, contention impossible here *)\n"
    ^ flagged
  in
  check_count "reasoned waiver silences" 0 (scan "lib/core/x.ml" waived);
  (* a reasonless waiver is itself a finding, even over a static rule *)
  let reasonless = "(* lint: allow *)\n" ^ flagged in
  check_count "reasonless waiver flagged" 1
    (with_rule "waiver" (scan "lib/core/x.ml" reasonless));
  (* a static finding keeps a waiver live: no stale-waiver complaint *)
  let live =
    "(* lint: allow — fixture loop, contention impossible here *)\n"
    ^ "let rec push q v =\n\
      \  if M.cas q 0 v then () else push q v\n"
  in
  check_count "waiver over static finding not stale" 0
    (with_rule "waiver" (scan "lib/core/x.ml" live))

(* ---- parse errors ------------------------------------------------------ *)

let test_parse_error_reported () =
  let fs = scan "lib/core/x.ml" "let x = (\n" in
  Alcotest.(check bool) "parse finding" true
    (with_rule "parse" fs <> [])

(* ---- the seeded mutants ------------------------------------------------ *)

let mutant_src = "mutant_static.ml"

let scan_mutant () =
  if Sys.file_exists mutant_src then Some (Analysis.scan_file mutant_src)
  else None

let test_mutant_lock_inverted_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let lo = with_rule "lock-order" fs in
      check_count "one inversion" 1 lo;
      Alcotest.(check bool) "names the ancestor/descendant order" true
        (let f = List.hd lo in
         f.Analysis.msg <> "" && f.Analysis.file = mutant_src);
      (* the correctly ordered partner and the primitives stay clean *)
      check_count "no leak" 0 (with_rule "lock-leak" fs)

let test_mutant_post_publish_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      check_count "stale publish" 1 (with_rule "stale-publish" fs);
      (* the republished root, plus [Published_record_write]'s in-place
         bump — the same discipline broken from the other direction *)
      check_count "post-publish mutation" 2
        (with_rule "post-publish-mutation" fs)

let test_mutant_aliased_helper_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let sr = with_rule "static-retry" fs in
      check_count "exactly the dropped-alias loop" 1 sr;
      let msg = (List.hd sr).Analysis.msg in
      Alcotest.(check bool) "names extract_spin" true
        (let sub = "Aliased_helper_dropped.extract_spin" in
         let rec has i =
           i + String.length sub <= String.length msg
           && (String.sub msg i (String.length sub) = sub || has (i + 1))
         in
         has 0);
      (* the token engine's substring heuristic misses it: that gap is
         the rule's reason to exist *)
      let token = Lint_rules.scan_file mutant_src in
      check_count "token lint blind to the alias" 0
        (List.filter
           (fun f -> f.Lint_rules.rule = "retry-no-backoff")
           token)

let contains = Analysis.Summary.contains_sub

let test_mutant_unstamped_publish_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let ar = with_rule "aba-risk" fs in
      (* the unstamped publish loop, plus the post-publish mutant's
         republishing CAS (root is recycled by its insert) — the
         stamped twin and every seq-disciplined loop stay silent *)
      check_count "exactly the two ABA-prone CAS sites" 2 ar;
      Alcotest.(check bool) "one names the recycled slot" true
        (List.exists (fun f -> contains f.Analysis.msg "slot") ar);
      Alcotest.(check bool) "one names the republished root" true
        (List.exists (fun f -> contains f.Analysis.msg "root") ar)

let test_mutant_lost_update_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let at = with_rule "atomicity" fs in
      check_count "both pq sets and the counter bump" 3 at;
      check_count "two on the sorted-list cell" 2
        (List.filter (fun f -> contains f.Analysis.msg "cell") at);
      check_count "one on the drifting counter" 1
        (List.filter (fun f -> contains f.Analysis.msg "hits") at)

(* 1-based line of the first source line containing [needle]. *)
let line_of path needle =
  let lines = String.split_on_char '\n' (Analysis.read_file path) in
  let rec go i = function
    | [] -> Alcotest.failf "%s: no line contains %S" path needle
    | l :: rest -> if contains l needle then i else go (i + 1) rest
  in
  go 1 lines

let test_mutant_published_record_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let bump = line_of mutant_src "s.used <- s.used + 1" in
      check_count "the in-place bump is a post-publish mutation" 1
        (List.filter
           (fun f -> f.Analysis.line = bump)
           (with_rule "post-publish-mutation" fs))

let test_mutant_unpadded_top_row_flagged () =
  match scan_mutant () with
  | None -> ()
  | Some fs ->
      let ly = with_rule "layout" fs in
      check_count "exactly the unpadded record" 1 ly;
      Alcotest.(check bool) "names the adjacent hot pair" true
        (let msg = (List.hd ly).Analysis.msg in
         contains msg "top_val" && contains msg "top_ver")

(* ---- waivers over the new rules ---------------------------------------- *)

let test_waivers_cover_new_rules () =
  let lost =
    "let bump q =\n\
    \  let n = R.Atomic.get q in\n\
    \  (* lint: allow — single-writer counter, interference impossible *)\n\
    \  R.Atomic.set q (n + 1)\n"
  in
  check_count "reasoned waiver silences atomicity" 0
    (scan "lib/core/x.ml" lost);
  let unpadded =
    "(* lint: allow — diagnostic-only record, never on the hot path *)\n\
     type hot = { mutable a : int; mutable b : int }\n\n"
    ^ layout_ops
  in
  check_count "reasoned waiver silences layout" 0
    (scan "lib/core/x.ml" unpadded);
  (* the waiver is live (covers a real finding): no staleness complaint
     — and without the finding underneath, the same waiver is stale *)
  let stale =
    "let bump q =\n\
    \  (* lint: allow — single-writer counter, interference impossible *)\n\
    \  ignore (R.Atomic.fetch_and_add q 1)\n"
  in
  check_count "waiver with nothing under it is stale" 1
    (with_rule "waiver" (scan "lib/core/x.ml" stale))

(* The same hygiene over a publication finding: a reasoned waiver
   silences post-publish-mutation and is live, not stale; the identical
   waiver over code with no finding is stale; a reasonless one is
   flagged; and prose that merely mentions the marker waives nothing. *)
let test_waivers_cover_publication () =
  let bump =
    "let bump q =\n\
    \  let n = M.get q in\n\
    \  n.count <- n.count + 1\n"
  in
  let waived =
    "let bump q =\n\
    \  let n = M.get q in\n\
    \  (* lint: allow — fixture: the record is never shared *)\n\
    \  n.count <- n.count + 1\n"
  in
  let fs = scan "lib/core/x.ml" waived in
  check_count "post-publish-mutation silenced by the reasoned waiver" 0
    (with_rule "post-publish-mutation" fs);
  check_count "the waiver covers a live finding: not stale" 0
    (with_rule "waiver" fs);
  let stale =
    "let bump q =\n\
    \  (* lint: allow — fixture: the record is never shared *)\n\
    \  ignore (R.Atomic.fetch_and_add q 1)\n"
  in
  check_count "same waiver without a finding is stale" 1
    (with_rule "waiver" (scan "lib/core/x.ml" stale));
  let reasonless =
    "let bump q =\n\
    \  let n = M.get q in\n\
    \  (* lint: allow *)\n\
    \  n.count <- n.count + 1\n"
  in
  check_count "reasonless waiver flagged" 1
    (with_rule "waiver" (scan "lib/core/x.ml" reasonless));
  let prose = "(* discussed in the lint: allow audit *)\n" ^ bump in
  check_count "prose mention waives nothing" 1
    (with_rule "post-publish-mutation" (scan "lib/core/x.ml" prose))

(* ---- dynamic cross-checks on the same mutant code ---------------------- *)

let liveness_config =
  if Sys.getenv_opt "PROGRESS_FULL" = Some "1" then Liveness.default_config
  else Liveness.quick_config

let test_mutant_lock_inverted_deadlocks () =
  let p = Mutant_static.lock_inverted_static_program in
  let r = Liveness.certify ~config:liveness_config p in
  Alcotest.(check bool) "not deadlock-free" false r.Liveness.deadlock_free;
  match r.Liveness.fair_cycle with
  | None -> Alcotest.fail "expected a fair deadlock cycle"
  | Some c ->
      Alcotest.(check bool) "pure spin (no writes in pump)" false
        c.Liveness.pump_writes;
      Alcotest.(check bool) "replayable schedule" true
        (Liveness.check_cycle ~config:liveness_config p c)

module C = Check

let dpor_config =
  {
    C.default_config with
    C.max_schedules =
      (if Sys.getenv_opt "DPOR_FULL" <> None then 2_000_000 else 50_000);
  }

let two_extracts =
  Harness.Dpor_exp.pq_program ~name:"two-extracts-post-publish"
    ~make:Mutant_static.post_publish_pq ~prepopulate:[ 1; 2 ] ~lin:true
    [ [ `Extract ]; [ `Extract ] ]

let test_mutant_post_publish_breaks_linearizability () =
  let r = C.explore ~config:dpor_config two_extracts in
  match r.C.counterexample with
  | Some { failure = C.Invariant msg; schedule; _ } ->
      let replay = C.run_schedule two_extracts schedule in
      Alcotest.(check bool) "replay reproduces the violation" true
        (replay.C.replay_failure = Some (C.Invariant msg))
  | Some { failure; _ } ->
      Alcotest.failf "expected an invariant violation, got %a" C.pp_failure
        failure
  | None ->
      Alcotest.fail "mutant survived: post-publish mutation not caught"

(* The atomicity rule's verdict on [Lost_update], cross-checked
   dynamically: the same code, driven by DPOR, double-delivers the
   minimum — the static lost-update finding is a real linearizability
   violation, not a style nit. The defect's plain get-then-set pair is
   itself an unordered write pair, so the race oracle fires on every
   interesting trace first; silencing it ([race_oracle = false]) lets
   the Lin verdict pronounce on the semantic damage. *)
let two_extracts_lost_update =
  Harness.Dpor_exp.pq_program ~name:"two-extracts-lost-update"
    ~make:Mutant_static.lost_update_pq ~prepopulate:[ 1; 2 ] ~lin:true
    [ [ `Extract ]; [ `Extract ] ]

let test_mutant_lost_update_breaks_linearizability () =
  (* the write-write race is real and detected when asked for... *)
  let r = C.explore ~config:dpor_config two_extracts_lost_update in
  (match r.C.counterexample with
  | Some { failure = C.Race _; _ } -> ()
  | Some { failure; _ } ->
      Alcotest.failf "expected a write-write race, got %a" C.pp_failure
        failure
  | None -> Alcotest.fail "mutant survived the race oracle");
  (* ...and past it, the lost update breaks linearizability: the same
     minimum is delivered to both extractions *)
  let config = { dpor_config with C.race_oracle = false } in
  let r = C.explore ~config two_extracts_lost_update in
  match r.C.counterexample with
  | Some { failure = C.Invariant msg; schedule; _ } ->
      let replay = C.run_schedule ~config two_extracts_lost_update schedule in
      Alcotest.(check bool) "replay reproduces the violation" true
        (replay.C.replay_failure = Some (C.Invariant msg))
  | Some { failure; _ } ->
      Alcotest.failf "expected an invariant violation, got %a" C.pp_failure
        failure
  | None -> Alcotest.fail "mutant survived: lost update not caught"

(* ---- the shipped tree -------------------------------------------------- *)

let test_shipped_tree_clean () =
  (* Belt and braces alongside the [@lint] alias, as in [test_lint]:
     source may live elsewhere in a sandbox; skip silently then. *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let fs = Analysis.scan_tree "lib" in
    List.iter (fun f -> Format.printf "%a@." Analysis.pp_finding f) fs;
    check_count "shipped lib/ clean under both engines" 0 fs
  end

let () =
  Alcotest.run "analysis"
    [
      ( "lock-order",
        [
          Alcotest.test_case "acquisition order" `Quick test_lock_order;
          Alcotest.test_case "release on every path" `Quick test_lock_leak;
        ] );
      ( "publication",
        [
          Alcotest.test_case "stale publish" `Quick test_stale_publish;
          Alcotest.test_case "post-publish mutation" `Quick
            test_post_publish_mutation;
          Alcotest.test_case "boxed record bumped in place" `Quick
            test_post_publish_boxed_record;
        ] );
      ( "clean-twins",
        [
          Alcotest.test_case "domain-local array" `Quick
            test_domain_local_clean;
          Alcotest.test_case "mutex-held shared slot" `Quick
            test_locked_ledger_clean;
        ] );
      ( "multiqueue-idioms",
        [
          Alcotest.test_case "sticky-lock discipline" `Quick
            test_multiqueue_sticky_lock;
          Alcotest.test_case "cached-top publish" `Quick
            test_multiqueue_top_cache;
        ] );
      ( "helping-v2",
        [
          Alcotest.test_case "static-retry" `Quick test_static_retry;
          Alcotest.test_case "static-deadline" `Quick test_static_deadline;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "aba-risk" `Quick test_aba_risk;
          Alcotest.test_case "atomicity" `Quick test_atomicity;
          Alcotest.test_case "atomicity across calls" `Quick
            test_atomicity_interprocedural;
          Alcotest.test_case "layout" `Quick test_layout;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "local module aliases resolve" `Quick
            test_letmodule_alias_resolution;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "static findings and waivers" `Quick
            test_waivers_cover_static_findings;
          Alcotest.test_case "waivers over the dataflow rules" `Quick
            test_waivers_cover_new_rules;
          Alcotest.test_case "waivers over the publication rules" `Quick
            test_waivers_cover_publication;
          Alcotest.test_case "parse errors are findings" `Quick
            test_parse_error_reported;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "lock inversion flagged" `Quick
            test_mutant_lock_inverted_flagged;
          Alcotest.test_case "post-publish mutation flagged" `Quick
            test_mutant_post_publish_flagged;
          Alcotest.test_case "dropped aliased helper flagged" `Quick
            test_mutant_aliased_helper_flagged;
          Alcotest.test_case "unstamped publish flagged" `Quick
            test_mutant_unstamped_publish_flagged;
          Alcotest.test_case "lost update flagged" `Quick
            test_mutant_lost_update_flagged;
          Alcotest.test_case "unpadded top row flagged" `Quick
            test_mutant_unpadded_top_row_flagged;
          Alcotest.test_case "published record write flagged" `Quick
            test_mutant_published_record_flagged;
          Alcotest.test_case "lock inversion deadlocks under liveness"
            `Quick test_mutant_lock_inverted_deadlocks;
          Alcotest.test_case "post-publish mutation breaks linearizability"
            `Quick test_mutant_post_publish_breaks_linearizability;
          Alcotest.test_case "lost update breaks linearizability" `Quick
            test_mutant_lost_update_breaks_linearizability;
        ] );
      ( "tree",
        [
          Alcotest.test_case "shipped tree clean" `Quick
            test_shipped_tree_clean;
        ] );
    ]
