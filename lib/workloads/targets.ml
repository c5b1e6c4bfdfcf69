(** The five evaluated file systems (plus Simurgh's relaxed-write
    variant) behind one runner type, so every experiment can iterate over
    them uniformly.  Each run gets a fresh file system and a fresh
    machine. *)

open Simurgh_sim

module Simurgh_impl = struct
  include Simurgh_core.Fs
end

module Fx_simurgh = Fxmark.Make (Simurgh_impl)
module Fx_nova = Fxmark.Make (Simurgh_baselines.Nova)
module Fx_pmfs = Fxmark.Make (Simurgh_baselines.Pmfs)
module Fx_ext4 = Fxmark.Make (Simurgh_baselines.Ext4dax)
module Fx_splitfs = Fxmark.Make (Simurgh_baselines.Splitfs)

type target = {
  name : string;
  run_fx :
    ?region_mb:int -> threads:int -> ops:int -> Fxmark.bench -> Fxmark.result;
}

let default_region_mb = 512

(** The Simurgh configurations the experiments compare, each fixed at
    mkfs.  [Seed] is the paper's design; [Relaxed] drops the per-file
    write lock (Fig. 7k); [Scaled] turns on the metadata-scalability
    features (striped directory locks, per-thread allocator caches, the
    DRAM resolve cache) with the seed's on-media objects, so seed-vs-
    scaled sweeps isolate the concurrency work; [Ring] adds the
    rename-log ring format, so concurrent renames stop serializing on
    the single per-directory log lock. *)
type config = Seed | Relaxed | Scaled | Ring

let fresh_simurgh ?(config = Seed) ?(region_mb = default_region_mb) () =
  let region = Simurgh_nvmm.Region.create (region_mb * 1024 * 1024) in
  let scaled = config = Scaled || config = Ring in
  Simurgh_core.Fs.mkfs ~euid:0 ~relaxed_writes:(config = Relaxed)
    ~striped_locks:scaled ~rcache:scaled ~alloc_caches:scaled
    ~log_ring:(if config = Ring then 16 else 0)
    region

let simurgh ?(config = Seed) () =
  {
    name =
      (match config with
      | Seed -> "Simurgh"
      | Relaxed -> "Simurgh-relaxed"
      | Scaled -> "Simurgh-scaled"
      | Ring -> "Simurgh-logring");
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        let fs = fresh_simurgh ~config ?region_mb () in
        let machine = Machine.create () in
        Fx_simurgh.run machine fs bench ~threads ~ops);
  }

let nova () =
  {
    name = "NOVA";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Nova.create () in
        let machine = Machine.create () in
        Fx_nova.run machine fs bench ~threads ~ops);
  }

let pmfs () =
  {
    name = "PMFS";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Pmfs.create () in
        let machine = Machine.create () in
        Fx_pmfs.run machine fs bench ~threads ~ops);
  }

let ext4dax () =
  {
    name = "EXT4-DAX";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Ext4dax.create () in
        let machine = Machine.create () in
        Fx_ext4.run machine fs bench ~threads ~ops);
  }

let splitfs () =
  {
    name = "SplitFS";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Splitfs.create () in
        let machine = Machine.create () in
        Fx_splitfs.run machine fs bench ~threads ~ops);
  }

(** The paper's comparison set, in its plotting order. *)
let all () = [ simurgh (); nova (); splitfs (); pmfs (); ext4dax () ]
