(* The benchmark's own tests: modeled results repeat for a seed, a
   second seed stays within the bounds BENCHMARK.json fixes, the probe
   charges no virtual time, and the output and durability checks fire
   on their negative controls. *)

open Simbench
open Simurgh_sim
open Simurgh_fs_common

let out = Filename.get_temp_dir_name ()
let bench_json = ref "BENCHMARK.json"

let round ?corrupt spec seed =
  fst (Measure.round ?corrupt spec ~seed ~traced:false ~check:false ~out)

let small (spec : Wl.spec) ops = { spec with Wl.ops }

(* The bound BENCHMARK.json fixes for end-to-end metric [name]. *)
let bound name =
  let ic = open_in !bench_json in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let find_from pat from =
    let n = String.length pat in
    let rec go i =
      if i + n > String.length s then raise Not_found
      else if String.sub s i n = pat then i + n
      else go (i + 1)
    in
    go from
  in
  let at = find_from "\"bound\":" (find_from (Printf.sprintf "%S" name) 0) in
  let stop = String.index_from s at '\n' in
  float_of_string (String.trim (String.sub s at (stop - at)))

let test_repeatable (spec : Wl.spec) () =
  let spec = small spec 1024 in
  let a = round spec 7L and b = round spec 7L in
  Alcotest.(check bool) "modeled metrics identical" true
    (a.Measure.modeled = b.Measure.modeled);
  Alcotest.(check int) "no failed ops" 0 a.Measure.res.Runner.failed

let test_second_seed (spec : Wl.spec) () =
  let a = (round spec 1L).Measure.modeled
  and b = (round spec 2L).Measure.modeled in
  List.iter
    (fun (name, x, y) ->
      let d = Float.abs (y -. x) /. x in
      if d > bound name then
        Alcotest.failf "%s moved %.2f%% between seeds 1 and 2 (bound %.0f%%)"
          name (100.0 *. d) (100.0 *. bound name))
    [
      ("throughput_kops", a.Report.throughput_kops, b.Report.throughput_kops);
      ("op_mean_us", a.Report.op_mean_us, b.Report.op_mean_us);
      ("op_tail_us", a.Report.op_tail_us, b.Report.op_tail_us);
      ("nvmm_used_mb", a.Report.nvmm_used_mb, b.Report.nvmm_used_mb);
    ]

(* One op stream, generic over the file system module. *)
module Stream (F : Fs_intf.S) = struct
  let run fs =
    let machine = Machine.create () in
    let o =
      Engine.run_ops machine ~threads:4 ~ops_per_thread:64 (fun ctx i ->
          let tid = ctx.Machine.thr.Sthread.tid in
          let p = Printf.sprintf "/s%d-%d" tid i in
          F.create_file ~ctx fs p;
          let fd = F.openf ~ctx fs Types.rdwr p in
          ignore (F.append ~ctx fs fd (Bytes.make 5000 'x'));
          F.fsync ~ctx fs fd;
          ignore (F.pread ~ctx fs fd ~pos:100 ~len:4000);
          F.close ~ctx fs fd;
          ignore (F.stat ~ctx fs p);
          F.rename ~ctx fs p (p ^ ".r");
          ignore (F.readdir ~ctx fs "/");
          if i mod 2 = 0 then F.unlink ~ctx fs (p ^ ".r"))
    in
    o.Engine.makespan_cycles
end

module Raw = Stream (Simurgh_core.Fs)
module Probed = Stream (Probe.Fs)

let test_probe_transparent () =
  let fresh () =
    let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in
    (Fsconfig.build ~region ~tenants:1).Fsconfig.tenants.(0)
  in
  let raw = Raw.run (fresh ()) in
  let tracer = Tracer.create ~threads:4 in
  let probed = Probed.run (fresh (), tracer) in
  Alcotest.(check bool) "spans recorded" true (tracer.Tracer.n > 0);
  Alcotest.(check (float 0.0)) "same makespan" raw probed

let test_corrupt_shadow (spec : Wl.spec) () =
  let r = round ~corrupt:true (small spec 1024) 3L in
  if r.Measure.res.Runner.failed = 0 then
    Alcotest.fail "a corrupted shadow went unnoticed"

let test_replay_clean () =
  let clean, acked, lost = Measure.replay Wl_mail.spec ~seed:3L in
  Alcotest.(check bool) "checker clean" true clean;
  Alcotest.(check bool) "writes acked" true (acked > 0);
  Alcotest.(check int) "no lost writes" 0 lost

let test_replay_skipped_fsync () =
  let _, _, lost = Measure.replay ~skip_fsync:5 Wl_mail.spec ~seed:3L in
  if lost = 0 then Alcotest.fail "a skipped fsync went unnoticed"

let () =
  (match Sys.argv with [| _; p |] -> bench_json := p | _ -> ());
  let per_workload name f =
    List.map
      (fun (spec : Wl.spec) ->
        Alcotest.test_case (spec.Wl.name ^ ": " ^ name) `Slow (f spec))
      [ Wl_ns.spec; Wl_mail.spec ]
  in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "simbench"
    [
      ("determinism", per_workload "same seed, same modeled metrics" test_repeatable);
      ("seeds", per_workload "second seed within bounds" test_second_seed);
      ( "probe",
        [ Alcotest.test_case "probed and raw makespans agree" `Quick test_probe_transparent ] );
      ( "negative controls",
        per_workload "corrupted shadow is a failure" test_corrupt_shadow
        @ [
            Alcotest.test_case "replay without faults loses nothing" `Slow
              test_replay_clean;
            Alcotest.test_case "skipped fsync is a lost write" `Slow
              test_replay_skipped_fsync;
          ] );
    ]
