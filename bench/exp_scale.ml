(** Run id [scale]: metadata-scalability sweep of the shared-directory
    path.

    The paper's evaluation stops at 10 threads, where the seed
    reproduction's single per-directory append lock barely shows.  This
    experiment sweeps the four metadata FxMark microbenchmarks that
    stress one directory (7b createfile-shared, 7d renamefile-shared,
    7f resolvepath-shared, plus 7a createfile-private as the
    uncontended control) across thread counts well past that, comparing
    seed Simurgh against the scaled configuration (striped directory
    locks + per-thread allocator caches + DRAM resolve cache — see
    DESIGN.md "Metadata scalability").  Both configurations share the
    same on-media layout; only volatile coordination differs.

    Results are printed as the usual per-thread tables, mirrored into
    {!Simurgh_obs.Report} for the [--json] flow and summarized as
    [scale/*] counters. *)

open Simurgh_workloads
module Report = Simurgh_obs.Report

let thread_counts = [ 1; 2; 4; 8; 16; 24; 32; 40 ]

(* (short id, bench, base ops/thread) — creates kept moderate so the
   40-thread shared directory stays within sane chain lengths *)
let benches =
  [
    ("7b", Fxmark.Create_shared, 1000);
    ("7d", Fxmark.Rename_shared, 1000);
    ("7f", Fxmark.Resolve_shared, 2000);
    ("7a", Fxmark.Create_private, 1000);
  ]

(* Right-size the region per run: the sweep formats dozens of file
   systems, each zero-filling its whole image (512 MB by default).
   ~2 KB per created file plus fixed slack covers every bench here with
   ample headroom. *)
let region_mb_for ~threads ~ops = max 96 (64 + (threads * ops * 2 / 1024))

let sweep (t : Targets.target) bench ~ops =
  List.map
    (fun threads ->
      let region_mb = region_mb_for ~threads ~ops in
      let r = t.Targets.run_fx ~region_mb ~threads ~ops bench in
      Util.kops r.Fxmark.throughput)
    thread_counts

(* The log-ring sweep keeps its hands on the file system so the
   rename-log slot counters can be read back after each run. *)
let sweep_ring bench ~ops =
  let acquisitions = ref 0.0 and full_waits = ref 0.0 in
  let kops =
    List.map
      (fun threads ->
        let region_mb = region_mb_for ~threads ~ops in
        let fs = Targets.fresh_simurgh ~config:Ring ~region_mb () in
        let machine = Simurgh_sim.Machine.create () in
        let r = Targets.Fx_simurgh.run machine fs bench ~threads ~ops in
        let locks = Simurgh_core.Fs.locks fs in
        acquisitions :=
          !acquisitions
          +. float_of_int (Simurgh_core.Locks.log_slot_acquisitions locks);
        full_waits :=
          !full_waits
          +. float_of_int (Simurgh_core.Locks.log_ring_full_waits locks);
        Util.kops r.Fxmark.throughput)
      thread_counts
  in
  (kops, !acquisitions, !full_waits)

let run ~scale =
  Report.note
    "kops: virtual-time Kops/s; seed: stock configuration; scaled: striped \
     directory locks + per-thread allocator caches + DRAM resolve cache \
     (same on-media layout); ring: scaled plus the per-directory rename-log \
     ring format (log_ring=16)";
  Report.counter "scale/thread_max"
    (float_of_int (List.fold_left max 1 thread_counts));
  List.iter
    (fun (id, bench, base_ops) ->
      let ops = Util.scaled ~scale base_ops in
      let title =
        Printf.sprintf "scale %s: %s seed vs scaled (Kops/s; %d ops/thread)"
          id (Fxmark.bench_name bench) ops
      in
      Util.header title;
      Util.print_thread_header thread_counts;
      let seed_kops = sweep (Targets.simurgh ()) bench ~ops in
      Util.series "Simurgh" " %9.0f" seed_kops;
      let scaled_kops = sweep (Targets.simurgh ~config:Scaled ()) bench ~ops in
      Util.series "Simurgh-scaled" " %9.0f" scaled_kops;
      let speedup =
        List.map2 (fun sc se -> if se > 0.0 then sc /. se else 0.0)
          scaled_kops seed_kops
      in
      Util.series "speedup" " %9.2f" speedup;
      let tmax = List.fold_left max 1 thread_counts in
      let last l = List.nth l (List.length l - 1) in
      (* rename benches get the third curve: scaled + rename-log ring,
         the only configuration whose log windows can overlap *)
      if bench = Fxmark.Rename_shared then begin
        let kops, acquisitions, full_waits = sweep_ring bench ~ops in
        Util.series "Simurgh-logring" " %9.0f" kops;
        Util.series "ring/scaled" " %9.2f"
          (List.map2 (fun r sc -> if sc > 0.0 then r /. sc else 0.0) kops
             scaled_kops);
        Report.counter
          (Printf.sprintf "scale/%s/ring_t%d_kops" id tmax)
          (last kops);
        Report.counter "rename_log/slot_acquisitions" acquisitions;
        Report.counter "rename_log/ring_full_waits" full_waits
      end;
      Report.counter
        (Printf.sprintf "scale/%s/seed_t%d_kops" id tmax)
        (last seed_kops);
      Report.counter
        (Printf.sprintf "scale/%s/scaled_t%d_kops" id tmax)
        (last scaled_kops);
      Report.counter
        (Printf.sprintf "scale/%s/speedup_t%d" id tmax)
        (last speedup))
    benches
