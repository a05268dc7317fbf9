(* The structures under test, each on real domains through the
   [Intf.MOUND] signature, in the order a run measures them. *)

module Lf = struct
  include Mound.Lf_int

  let name = "lf"
  let create ?init_depth () = create ?init_depth ()
end

module Lock = struct
  include Mound.Lock_int

  let name = "lock"
  let create ?init_depth () = create ?init_depth ()
end

module Mq = struct
  include Mound.Multiqueue_int

  let name = "mq"

  (* c·P = 4 inner mounds share the keys: each gets 2 levels less *)
  let create ?init_depth () =
    create
      ?init_depth:(Option.map (fun d -> max 1 (d - 2)) init_depth)
      ~domains:2 ()
end

let all : (module Workload.QUEUE) list =
  [ (module Lf); (module Lock); (module Mq) ]
