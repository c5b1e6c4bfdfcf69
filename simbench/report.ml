(** Metrics of one measured run: the end-to-end metrics on the modeled
    clock, and the per-layer metrics of a traced run, computed from the
    spans and from the counters the library exports. *)

open Simurgh_sim
module Fs = Simurgh_core.Fs
module Region = Simurgh_nvmm.Region
module Balloc = Simurgh_alloc.Block_alloc
module Obs = Simurgh_obs

let cm = Cost_model.default
let us cycles = cycles /. cm.Cost_model.freq_hz *. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b
let pct a p = if Array.length a = 0 then 0.0 else Stats.percentile a p

(* Mean of the slowest 1% of [a].  Latencies of ops that take no lock
   wait come in a few fixed-cost classes, so percentiles of a
   lookup-heavy mix sit exactly on a class cost whatever the seed; the
   tail mean still moves with every sample beyond p99. *)
let tail_mean a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let k = max 1 (n / 100) in
    Stats.mean (Array.sub s (n - k) k)
  end

(** The modeled end-to-end metrics; identical for one seed. *)
type modeled = {
  throughput_kops : float;
  op_mean_us : float;
  op_p50_us : float;
  op_p99_us : float;
  op_tail_us : float;  (** mean of the slowest 1% *)
  samples : int;
  failed_frac : float;
  nvmm_used_mb : float;
}

let modeled (r : Runner.result) ~used_bytes =
  {
    throughput_kops =
      ratio (float_of_int r.Runner.attempted)
        (Cost_model.seconds cm r.Runner.makespan)
      /. 1e3;
    op_mean_us = us (Stats.mean r.Runner.lat);
    op_p50_us = us (pct r.Runner.lat 50.0);
    op_p99_us = us (pct r.Runner.lat 99.0);
    op_tail_us = us (tail_mean r.Runner.lat);
    samples = r.Runner.attempted;
    failed_frac = ratio (float_of_int r.Runner.failed) (float_of_int r.Runner.attempted);
    nvmm_used_mb = float_of_int used_bytes /. 1048576.0;
  }

(** Library counters sampled before the measured phase. *)
type snapshot = {
  region : Region.stats;
  balloc : Balloc.stats;
  rcache : Simurgh_core.Rcache.stats option;
}

let snapshot (cfg : Fsconfig.t) =
  let root = cfg.Fsconfig.root in
  {
    region = Region.stats cfg.Fsconfig.region;
    balloc = Balloc.stats (Fs.layout root).Simurgh_core.Layout.balloc;
    rcache = Option.map Simurgh_core.Rcache.stats (Fs.rcache_of root);
  }

let fs_ops =
  [
    "stat"; "openf"; "close"; "create_file"; "unlink"; "rename"; "pread";
    "append"; "fsync"; "readdir";
  ]

(** Per-layer metrics of a traced run, plus the lines that name the top
    lock site and give each layer's self time on both clocks. *)
let layers (inst : Wl.inst) (r : Runner.result) (tr : Tracer.t)
    (machine : Machine.t) (before : snapshot) =
  let ops = float_of_int r.Runner.attempted in
  let thread_cycles = r.Runner.thread_cycles in
  let durations = Hashtbl.create 16 and host = Hashtbl.create 16 in
  let self_m = Hashtbl.create 4 and self_h = Hashtbl.create 4 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let fs_total_m = ref 0.0 and fs_under_kv = ref 0 in
  Tracer.iter tr (fun _ s ->
      let key = Tracer.layer_name s.Tracer.layer ^ "." ^ s.Tracer.name in
      let d = s.Tracer.m1 -. s.Tracer.m0 in
      Hashtbl.replace durations key
        (d :: Option.value ~default:[] (Hashtbl.find_opt durations key));
      add host key s.Tracer.h_ns;
      add self_m s.Tracer.layer (d -. s.Tracer.child_m);
      add self_h s.Tracer.layer (s.Tracer.h_ns -. s.Tracer.child_h);
      if s.Tracer.layer = Tracer.Fs then begin
        fs_total_m := !fs_total_m +. d;
        if s.Tracer.parent >= 0
           && tr.Tracer.spans.(s.Tracer.parent).Tracer.layer = Tracer.Kvstore
        then incr fs_under_kv
      end);
  let lats key = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt durations key)) in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let fs_metrics =
    List.concat_map
      (fun op ->
        let key = "fs." ^ op in
        let l = lats key in
        let n = float_of_int (Array.length l) in
        [
          (key ^ ".per_op", ratio n ops);
          (key ^ ".p50_us", us (pct l 50.0));
          (key ^ ".p99_us", us (pct l 99.0));
          (key ^ ".host_ns", ratio (get host key) n);
        ])
      fs_ops
  in
  let extra = inst.Wl.layer_metrics () in
  let extra_v k = Option.value ~default:0.0 (List.assoc_opt k extra) in
  let kv =
    [
      ("kvstore.get_p50_us", us (pct (lats "kvstore.get") 50.0));
      ("kvstore.put_p50_us", us (pct (lats "kvstore.put") 50.0));
      ("kvstore.put_p99_us", us (pct (lats "kvstore.put") 99.0));
      ("kvstore.self_share", ratio (get self_m Tracer.Kvstore) thread_cycles);
      ("kvstore.fs_calls_per_op", ratio (float_of_int !fs_under_kv) ops);
      ("kvstore.compactions", extra_v "kvstore.compactions");
      ( "kvstore.compaction_bytes_per_user_byte",
        extra_v "kvstore.compaction_bytes_per_user_byte" );
      ( "kvstore.compacting_put_share",
        ratio (extra_v "kvstore.compacting_put_cycles") thread_cycles );
    ]
  in
  let after = snapshot inst.Wl.cfg in
  let rc =
    match (before.rcache, after.rcache) with
    | Some b, Some a ->
        let open Simurgh_core.Rcache in
        let hits = float_of_int (a.hits - b.hits)
        and misses = float_of_int (a.misses - b.misses) in
        [
          ("rcache.hit_frac", ratio hits (hits +. misses));
          ("rcache.inserts_per_op", ratio (float_of_int (a.inserts - b.inserts)) ops);
          ( "rcache.invalidations_per_op",
            ratio (float_of_int (a.invalidations - b.invalidations)) ops );
        ]
    | _ -> []
  in
  let run = Machine.obs machine in
  let sites = Obs.Contention.to_list run.Obs.Run.contention in
  let total_wait = Obs.Contention.total_wait run.Obs.Run.contention in
  let acq = Obs.Contention.total_acquisitions run.Obs.Run.contention in
  let contended =
    List.fold_left (fun acc (_, s) -> acc + s.Obs.Contention.contended) 0 sites
  in
  let top_site, top_wait =
    List.fold_left
      (fun (n, w) (name, s) ->
        if s.Obs.Contention.wait_cycles > w then (name, s.Obs.Contention.wait_cycles)
        else (n, w))
      ("none", 0.0) sites
  in
  let locks =
    [
      ("locks.wait_share", ratio total_wait thread_cycles);
      ("locks.contended_frac", ratio (float_of_int contended) (float_of_int acq));
      ("locks.top_site_wait_share", ratio top_wait total_wait);
    ]
  in
  let layout = Fs.layout inst.Wl.cfg.Fsconfig.root in
  let alloc =
    [
      ( "alloc.block_allocs_per_op",
        ratio (float_of_int (after.balloc.Balloc.allocs - before.balloc.Balloc.allocs)) ops );
      ( "alloc.blocks_freed_per_op",
        ratio
          (float_of_int (after.balloc.Balloc.blocks_freed - before.balloc.Balloc.blocks_freed))
          ops );
      ( "alloc.fentries_live",
        float_of_int
          (Simurgh_alloc.Slab_alloc.stats layout.Simurgh_core.Layout.fentry_slab)
            .Simurgh_alloc.Slab_alloc.live );
    ]
  in
  let d f = float_of_int (f after.region - f before.region) in
  let nvmm =
    [
      ( "nvmm.store_bytes_per_user_byte",
        ratio (d (fun s -> s.Region.store_bytes)) (float_of_int (inst.Wl.user_bytes ())) );
      ("nvmm.flush_lines_per_op", ratio (d (fun s -> s.Region.flushes)) ops);
      ("nvmm.fences_per_op", ratio (d (fun s -> s.Region.fences)) ops);
      ("nvmm.load_bytes_per_op", ratio (d (fun s -> s.Region.load_bytes)) ops);
    ]
  in
  let mach =
    [
      ( "machine.nvmm_read_util",
        ratio (Resource.busy_cycles machine.Machine.nvmm_read_srv) r.Runner.makespan );
      ( "machine.nvmm_write_util",
        ratio (Resource.busy_cycles machine.Machine.nvmm_write_srv) r.Runner.makespan );
      ( "machine.flush_share",
        ratio run.Obs.Run.spans.Obs.Span.flush_cycles thread_cycles );
    ]
  in
  let hs l = ratio (get self_h l) r.Runner.host_ns in
  (* the LSM layer is reported only where a workload runs it *)
  let has_kv = Hashtbl.mem self_m Tracer.Kvstore in
  let kv = if has_kv then kv else [] in
  let host =
    [ ("host.fs_share", hs Tracer.Fs) ]
    @ (if has_kv then [ ("host.kvstore_share", hs Tracer.Kvstore) ] else [])
    @ [ ("host.driver_share", 1.0 -. hs Tracer.Fs -. hs Tracer.Kvstore) ]
  in
  let fs_share = [ ("fs.share", ratio !fs_total_m thread_cycles) ] in
  let notes =
    Printf.sprintf "locks.top_site = %s" top_site
    :: List.map
         (fun l ->
           Printf.sprintf
             "self time %-8s modeled %12.0f cycles (%6.2f%% of thread time)  \
              host %12.0f ns (%6.2f%% of host time)"
             (Tracer.layer_name l) (get self_m l)
             (100.0 *. ratio (get self_m l) thread_cycles)
             (get self_h l)
             (100.0 *. hs l))
         (if has_kv then [ Tracer.App; Tracer.Kvstore; Tracer.Fs ]
          else [ Tracer.App; Tracer.Fs ])
  in
  (kv @ fs_metrics @ fs_share @ rc @ locks @ alloc @ nvmm @ mach @ host, notes)

(** Units of the per-layer metrics, by suffix. *)
let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_us" then "us"
  else if ends "_ns" then "ns"
  else if ends "bytes_per_op" then "B/op"
  else if ends "lines_per_op" then "lines/op"
  else if ends "per_op" then "1/op"
  else if ends "compactions" || ends "_live" then "count"
  else "ratio"

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(** The final result line. *)
let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
