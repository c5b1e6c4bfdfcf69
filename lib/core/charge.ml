(** Virtual-time charging helpers.  Every file-system entry point takes
    an optional [Machine.ctx]; with [None] (unit tests) charging is a
    no-op and only the real data-structure work happens. *)

open Simurgh_sim

type ctx = Machine.ctx option

let cpu ?ctx cycles =
  match ctx with None -> () | Some c -> Machine.cpu c cycles

(* Metadata line reads use the blended (partially cached) latency. *)
let read_lines ?ctx n =
  match ctx with None -> () | Some c -> Machine.nvmm_meta_read_lines c n

let write_lines ?ctx n =
  match ctx with None -> () | Some c -> Machine.nvmm_write_lines c n

let nvmm_read ?ctx bytes =
  match ctx with None -> () | Some c -> Machine.nvmm_read c bytes

let nvmm_write ?ctx bytes =
  match ctx with None -> () | Some c -> Machine.nvmm_write c bytes

let memcpy ?ctx bytes =
  match ctx with None -> () | Some c -> Machine.memcpy_cpu c bytes

let fence ?ctx () = match ctx with None -> () | Some c -> Machine.fence c

let atomic ?ctx ~contended () =
  match ctx with None -> () | Some c -> Machine.atomic c ~contended

(** Run [f] with NVMM line writes charged as posted ntstores (see
    {!Machine.with_posted_writes}); identity without a context. *)
let posted ?ctx f =
  match ctx with None -> f () | Some c -> Machine.with_posted_writes c f

let with_spin ?ctx lock f =
  match ctx with
  | None -> f ()
  | Some c ->
      Vlock.Spin.acquire c lock;
      (* exception-safe: a media fault mid-critical-section must not
         leave the lock held (the process keeps running after EIO) *)
      Fun.protect ~finally:(fun () -> Vlock.Spin.release c lock) f

(** Hold rwlock [lock ()] shared, or exclusive with [excl], across [f];
    identity without a context.  The lock is looked up only when there
    is a context, so context-free callers never mint registry entries.
    Exception-safe like {!with_spin}. *)
let with_rw ?ctx ~excl lock f =
  match ctx with
  | None -> f ()
  | Some c ->
      if excl then Vlock.Rw.with_write c (lock ()) f
      else Vlock.Rw.with_read c (lock ()) f
