(* Deterministic allocation budgets for the concurrent mounds: minor
   words per operation, measured with [Gc.minor_words] on one domain,
   for [insert], [extract_min], [insert_until] and [extract_min_until]
   on the LF, Lock and MultiQueue mounds. Unlike a wall-clock guard this
   is exact: one domain never contends, so every run performs the same
   allocations, and a regression of a tenth of a word per op fails.

   The budgets are the values measured before the protocol functions
   were folded into one insert and one take per structure (dev profile,
   which builds with [-opaque]); a change may lower them, never raise
   them. Run the executable to print the current table. *)

let n = 1 lsl 14

(* Distinct-ish keys in a scattered order, identical on every run. *)
let key i = i * 7919 mod 100003

(* Far enough away that no operation times out, so the deadline paths
   run exactly the same protocol as the unbounded ones plus the clock
   bookkeeping. *)
let horizon_ns = 3_600_000_000_000

let per_op f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

module type S = sig
  type t

  val insert : t -> int -> unit
  val extract_min : t -> int option
  val insert_until : t -> deadline:int -> int -> unit Mound.Intf.outcome

  val extract_min_until :
    t -> deadline:int -> int option Mound.Intf.outcome
end

(* Words/op for insert, extract_min, insert_until, extract_min_until:
   fill a fresh queue with [n] keys, then drain it, once unbounded and
   once against a far deadline. *)
let measure (type q) (module Q : S with type t = q) (create : unit -> q) =
  let q = create () in
  let ins = per_op (fun i -> Q.insert q (key i)) in
  let ext = per_op (fun _ -> ignore (Sys.opaque_identity (Q.extract_min q))) in
  let q = create () in
  let deadline () = Runtime.Real.monotonic_ns () + horizon_ns in
  let ins_u =
    per_op (fun i ->
        match Q.insert_until q ~deadline:(deadline ()) (key i) with
        | Mound.Intf.Ok () -> ()
        | Timeout | Rejected -> Alcotest.fail "insert_until gave up")
  in
  let ext_u =
    per_op (fun _ ->
        match Q.extract_min_until q ~deadline:(deadline ()) with
        | Mound.Intf.Ok (Some _) -> ()
        | Ok None | Timeout | Rejected ->
            Alcotest.fail "extract_min_until came back empty-handed")
  in
  [ ("insert", ins); ("extract_min", ext); ("insert_until", ins_u);
    ("extract_min_until", ext_u) ]

(* Budgets in words/op, rounded to the tenth shown, in the op order of
   [measure]. *)
let budgets =
  [
    ("lf", [ 158.8; 1101.6; 159.7; 1098.2 ]);
    ("lock", [ 110.8; 703.2; 110.6; 702.6 ]);
    ("mq", [ 59.3; 63.3; 59.2; 63.4 ]);
  ]

let measured () =
  [
    ("lf", measure (module Mound.Lf_int) (fun () -> Mound.Lf_int.create ()));
    ( "lock",
      measure (module Mound.Lock_int) (fun () -> Mound.Lock_int.create ()) );
    ( "mq",
      measure
        (module Mound.Multiqueue_int)
        (fun () -> Mound.Multiqueue_int.create ~domains:2 ()) );
  ]

let round1 x = Float.round (x *. 10.) /. 10.

(* One test case measures every structure in a fixed order, so the
   domain-local PRNG stream each structure sees is the same on every
   run regardless of test filtering. *)
let test_budgets () =
  Runtime.Real.set_seed 42L;
  let over =
    List.concat_map
      (fun (name, vals) ->
        List.map2
          (fun (op, v) b ->
            let v = round1 v in
            Printf.printf "%-5s %-18s %8.1f words/op (budget %.1f)\n" name op
              v b;
            if v > b then [ Printf.sprintf "%s %s: %.1f > %.1f" name op v b ]
            else [])
          vals (List.assoc name budgets))
      (measured ())
    |> List.concat
  in
  if over <> [] then
    Alcotest.failf "over budget (words/op): %s" (String.concat "; " over)

let () =
  Alcotest.run "alloc"
    [
      ( "budgets",
        [ Alcotest.test_case "minor words per op" `Quick test_budgets ] );
    ]
