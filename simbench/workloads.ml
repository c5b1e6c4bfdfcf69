(** The benchmark's workloads, by name. *)

let all : Wl.spec list = [ Wl_ycsb.spec; Wl_ns.spec; Wl_mail.spec ]
let find name = List.find_opt (fun (s : Wl.spec) -> s.Wl.name = name) all
