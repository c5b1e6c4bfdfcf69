(** Probe functor: times every {!Simurgh_fs_common.Fs_intf.S} call from
    outside the file system, as an [fs] span named after the op.  The
    probe charges no virtual time; calls without a context (setup,
    verification) pass straight through. *)

open Simurgh_fs_common

module Make (F : Fs_intf.S) : sig
  include Fs_intf.S with type t = F.t * Tracer.t and type fd = F.fd
end = struct
  type t = F.t * Tracer.t
  type fd = F.fd

  let name = F.name
  let p ?ctx tr op f = Tracer.span tr ?ctx Tracer.Fs op f

  let create_file ?ctx (fs, tr) ?perm path =
    p ?ctx tr "create_file" (fun () -> F.create_file ?ctx fs ?perm path)

  let mkdir ?ctx (fs, tr) ?perm path =
    p ?ctx tr "mkdir" (fun () -> F.mkdir ?ctx fs ?perm path)

  let unlink ?ctx (fs, tr) path = p ?ctx tr "unlink" (fun () -> F.unlink ?ctx fs path)
  let rmdir ?ctx (fs, tr) path = p ?ctx tr "rmdir" (fun () -> F.rmdir ?ctx fs path)

  let rename ?ctx (fs, tr) a b =
    p ?ctx tr "rename" (fun () -> F.rename ?ctx fs a b)

  let stat ?ctx (fs, tr) path = p ?ctx tr "stat" (fun () -> F.stat ?ctx fs path)

  let openf ?ctx (fs, tr) flags path =
    p ?ctx tr "openf" (fun () -> F.openf ?ctx fs flags path)

  let close ?ctx (fs, tr) fd = p ?ctx tr "close" (fun () -> F.close ?ctx fs fd)

  let pread ?ctx (fs, tr) fd ~pos ~len =
    p ?ctx tr "pread" (fun () -> F.pread ?ctx fs fd ~pos ~len)

  let pwrite ?ctx (fs, tr) fd ~pos src =
    p ?ctx tr "pwrite" (fun () -> F.pwrite ?ctx fs fd ~pos src)

  let append ?ctx (fs, tr) fd src =
    p ?ctx tr "append" (fun () -> F.append ?ctx fs fd src)

  let fallocate ?ctx (fs, tr) fd ~len =
    p ?ctx tr "fallocate" (fun () -> F.fallocate ?ctx fs fd ~len)

  let fsync ?ctx (fs, tr) fd = p ?ctx tr "fsync" (fun () -> F.fsync ?ctx fs fd)

  let readdir ?ctx (fs, tr) path =
    p ?ctx tr "readdir" (fun () -> F.readdir ?ctx fs path)

  let symlink ?ctx (fs, tr) ~target path =
    p ?ctx tr "symlink" (fun () -> F.symlink ?ctx fs ~target path)

  let readlink ?ctx (fs, tr) path =
    p ?ctx tr "readlink" (fun () -> F.readlink ?ctx fs path)

  let hardlink ?ctx (fs, tr) ~existing path =
    p ?ctx tr "hardlink" (fun () -> F.hardlink ?ctx fs ~existing path)

  let truncate ?ctx (fs, tr) path n =
    p ?ctx tr "truncate" (fun () -> F.truncate ?ctx fs path n)

  let exists ?ctx (fs, tr) path =
    p ?ctx tr "exists" (fun () -> F.exists ?ctx fs path)

  let chmod ?ctx (fs, tr) path m =
    p ?ctx tr "chmod" (fun () -> F.chmod ?ctx fs path m)

  let utimes ?ctx (fs, tr) path m =
    p ?ctx tr "utimes" (fun () -> F.utimes ?ctx fs path m)
end

module Fs = Make (Simurgh_core.Fs)
