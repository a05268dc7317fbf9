(* Hypervisor steal: time the host ran something else while this
   machine's CPUs had work to do. It is the eighth number of the
   aggregate "cpu" line of /proc/stat, summed over the CPUs, in ticks of
   10 ms.

   On a shared host, steal comes in bursts of seconds. A stolen CPU
   stops one domain outright, and the other soon waits for it: at the
   next stop-the-world minor collection, or behind a lock it holds. So a
   window the host stole from measures the host, not the program. Every
   timed sample records the steal it saw, and a metric is taken over the
   samples the host stole least from. *)

(* Total steal ticks so far; 0 where /proc/stat cannot be read, which
   makes every sample equal and keeps them all. *)
let ticks () =
  match Unix.openfile "/proc/stat" [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> 0
  | fd ->
      let buf = Bytes.create 256 in
      let n =
        try Unix.read fd buf 0 (Bytes.length buf)
        with Unix.Unix_error _ -> 0
      in
      Unix.close fd;
      let line = List.hd (String.split_on_char '\n' (Bytes.sub_string buf 0 n)) in
      (* "cpu  user nice system idle iowait irq softirq steal ..." *)
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          Option.value (int_of_string_opt (List.nth fields 7)) ~default:0
      | _ -> 0

(* The samples, each paired with the steal it saw, whose steal is at
   most that of the least-stolen third. On a quiet host every sample
   saw none, and all are kept. *)
let least_stolen samples =
  match samples with
  | [] -> []
  | _ ->
      let s = Array.of_list (List.map snd samples) in
      Array.sort compare s;
      let cut = s.((Array.length s - 1) / 3) in
      List.filter_map (fun (x, t) -> if t <= cut then Some x else None) samples
