(** Dynamic escalation of kill-matrix survivors.

    A mutant the static rule union lets through is not automatically a
    soundness gap: some defect classes (size-counter drift, a stale
    cached top, a sibling lock-order swap) are invisible to parse-time
    analysis {e by design} and covered by the dynamic tiers instead.
    The operator catalog maps each such class to a named {e twin} — a
    small canned simulator program expressing the defect the operator
    plants — and this module runs them: a twin whose checker reports a
    counterexample dynamically confirms the class is real and caught
    ([escalated]); a twin that runs clean marks the survivor [benign];
    a survivor with no mapped twin is a [gap], the honest residue the
    regression guard pins.

    The twins run the {e defect class}, not the mutated source itself —
    mutants are parse-validated, never compiled and linked (see
    DESIGN.md §13 for the caveat). That is the same relationship the
    hand-seeded [test/mutant_static.ml] programs have to their static
    fixtures, here mechanized end to end. *)

type verdict = { twin : string; defect : bool; detail : string }

module A = Sim.Runtime.Atomic

(* Size-counter drift: the structure's element count and its size
   counter disagree once the counter update is dropped or demoted to
   get-compute-set — two concurrent bumps collapse into one. The race
   oracle is off so the lost update itself is the reported failure, as
   in the seeded lost-update mutants. *)
let size_drift_program : Check.program =
  {
    Check.name = "mutation-size-drift";
    prepare =
      (fun () ->
        let size = A.make 0 in
        {
          Check.bodies = Array.make 2 (fun _ -> A.set size (A.get size + 1));
          verdict =
            (fun () ->
              let n = A.get size in
              if n = 2 then None
              else Some (Printf.sprintf "size counter drifted: %d after 2 bumps" n));
        });
  }

(* Stale cached top: the unlock path stops refreshing the per-cell top
   cache, so a peeker trusts a minimum the backing queue no longer
   holds. One extraction suffices — the defect is unconditional. *)
let stale_top_program : Check.program =
  {
    Check.name = "mutation-stale-top";
    prepare =
      (fun () ->
        let q = A.make [ 1; 2 ] in
        let top = A.make 1 in
        {
          Check.bodies =
            [|
              (fun _ ->
                match A.get q with
                | [] -> ()
                | _ :: tl -> A.set q tl (* top refresh deleted *));
            |];
          verdict =
            (fun () ->
              let t = A.get top in
              if List.mem t (A.get q) then None
              else
                Some
                  (Printf.sprintf
                     "cached top %d no longer present in the backing queue" t));
        });
  }

(* Opposite-order acquisition: two spinlocks taken in inverted order by
   peer threads — the classic hold-and-wait cycle a lock-acquisition
   swap creates. The liveness checker must confirm a fair no-write
   cycle (deadlock). *)
let lock_inversion_program : Liveness.program =
  (* lint: allow — deliberately unbounded spin: this fixture must be
     able to deadlock so the liveness twin can certify the
     swap-lock-order mutant class *)
  let prepare () =
    Sim.Sched.seed_ambient 17L;
    let l0 = A.make false and l1 = A.make false in
    let lock l =
      let rec spin () =
        if not (A.compare_and_set l false true) then begin
          Sim.Runtime.cpu_relax ();
          spin ()
        end
      in
      spin ()
    in
    let unlock l = A.set l false in
    (* lint: allow — one-time setup allocation, outside the spin loop *)
    let ops_done = Array.make 2 0 in
    let bodies =
      [|
        (fun _ ->
          lock l0;
          lock l1;
          unlock l1;
          unlock l0;
          ops_done.(0) <- 1);
        (fun _ ->
          lock l1;
          lock l0;
          unlock l0;
          unlock l1;
          ops_done.(1) <- 1);
      |]
    in
    { Liveness.bodies; ops_done = (fun () -> Array.copy ops_done) }
  in
  { Liveness.name = "mutation-lock-inversion"; prepare }

let check_config =
  { Check.default_config with max_schedules = 2_000; race_oracle = false }

(** Run one twin by name; [None] for a name the catalog never maps. *)
let run_twin name : verdict option =
  let of_report (r : Check.report) =
    match r.counterexample with
    | Some cx ->
        {
          twin = name;
          defect = true;
          detail = Format.asprintf "%a" Check.pp_failure cx.failure;
        }
    | None -> { twin = name; defect = false; detail = "explored clean" }
  in
  match name with
  | "size-drift" ->
      Some (of_report (Check.explore ~config:check_config size_drift_program))
  | "stale-top" ->
      Some (of_report (Check.explore ~config:check_config stale_top_program))
  | "lock-inversion-deadlock" ->
      let r = Liveness.certify ~config:Liveness.quick_config lock_inversion_program in
      let defect = r.fair_cycle <> None || not r.deadlock_free in
      Some
        {
          twin = name;
          defect;
          detail =
            (match r.fair_cycle with
            | Some c -> Format.asprintf "%a" Liveness.pp_cycle c
            | None ->
                if defect then "fair adversary timed out without progress"
                else "all adversaries completed");
        }
  | _ -> None

type escalation = {
  e_id : string;  (** mutant id *)
  e_status : string;  (** killed | escalated | benign | gap *)
  e_twin : string option;
  e_detail : string;
}

(** Triage every matrix row, running each distinct twin once. *)
let escalate (k : Analysis.Killmatrix.t) : escalation list =
  let memo = Hashtbl.create 4 in
  let twin_verdict name =
    match Hashtbl.find_opt memo name with
    | Some v -> v
    | None ->
        let v = run_twin name in
        Hashtbl.add memo name v;
        v
  in
  List.map
    (fun (r : Analysis.Killmatrix.row) ->
      let id = r.r_mutant.Analysis.Mutate.m_id in
      match Analysis.Killmatrix.triage r with
      | `Killed rules ->
          {
            e_id = id;
            e_status = "killed";
            e_twin = None;
            e_detail = String.concat "," rules;
          }
      | `Escalate twin -> (
          match twin_verdict twin with
          | Some v when v.defect ->
              {
                e_id = id;
                e_status = "escalated";
                e_twin = Some twin;
                e_detail = v.detail;
              }
          | Some v ->
              {
                e_id = id;
                e_status = "benign";
                e_twin = Some twin;
                e_detail = v.detail;
              }
          | None ->
              {
                e_id = id;
                e_status = "gap";
                e_twin = Some twin;
                e_detail = "twin not implemented";
              })
      | `Gap ->
          {
            e_id = id;
            e_status = "gap";
            e_twin = None;
            e_detail = "no static kill and no mapped dynamic twin";
          })
    k.k_rows
