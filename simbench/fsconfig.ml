(** The one Simurgh configuration every workload runs on: secure media
    with a 16-slot rename-log ring, mounted with striped directory
    locks, the DRAM resolve cache, per-thread allocator caches and
    byte-range data locks.  A root mount opens [/] and installs a roomy
    quota per tenant; the workload runs through tenant mounts. *)

module Fs = Simurgh_core.Fs
module Region = Simurgh_nvmm.Region

type t = {
  region : Region.t;
  root : Fs.t;  (** uid 0: formatting, population, verification *)
  tenants : Fs.t array;  (** one mount per tenant uid *)
}

let build ~region ~tenants =
  let root =
    Fs.mkfs ~euid:0 ~egid:0 ~secure:true ~log_ring:16 ~striped_locks:true
      ~rcache:true ~alloc_caches:true ~range_locks:true region
  in
  Fs.chmod root "/" 0o777;
  let tenants =
    Array.init tenants (fun i ->
        let uid = 1000 + i in
        Fs.set_quota root ~uid ~blocks:(1 lsl 40);
        Fs.mount ~euid:uid ~egid:uid ~range_locks:true region)
  in
  { region; root; tenants }

(** Bytes in use on the volume ([statfs] used blocks x block size). *)
let used_bytes t =
  let s = Fs.statfs t.root in
  s.Fs.used_blocks * s.Fs.block_size

(** Cut power after the replayed prefix (only persisted lines survive),
    recover, and return the checker's violations on the recovered
    image.  The region must be [Strict]. *)
let crash_and_recover t =
  Region.crash_image t.region ~keep:(fun _ -> false);
  ignore (Simurgh_core.Recovery.run t.region);
  Simurgh_core.Check.run t.region

(** A mount of a recovered image, for verification. *)
let remount t = Fs.mount ~euid:0 ~egid:0 ~range_locks:true t.region
