(* The benchmark's measuring program.  [run.py] builds and invokes it;
   it can also be run directly:

     dune exec simbench/main.exe -- --workload mail --seed 1 --seconds 10 --trace 0

   It sets up the workload several times (reporting the median set-up
   time), measures the same seeded op stream on fresh file systems until
   [--seconds] of host time have passed (at least five times; modeled
   results must repeat exactly), checks the image with the offline
   checker, replays a prefix on a strict region through a crash and
   recovery, and prints every metric followed by one JSON result line.
   With [--trace 1] it alternates untraced and traced runs and reports
   the per-layer metrics instead. *)

open Simbench
open Measure

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0
  and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let spec =
    match Workloads.find !workload with
    | Some s when !seed >= 0 && (!trace = 0 || !trace = 1) -> s
    | _ -> usage ()
  in
  let out = ".simbench-out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let seed = Int64.of_int !seed and traced = !trace = 1 in
  Printf.printf "workload %s (%d simulated threads, %d app ops), seed %Ld, %s\n%!"
    spec.Wl.name spec.Wl.threads spec.Wl.ops seed
    (if traced then "traced" else "untraced");
  (* measured runs: untraced ones always; with tracing, alternate *)
  let t_start = Unix.gettimeofday () in
  let plain = ref [] and tracedr = ref [] and clean = ref true in
  let n = ref 0 in
  while
    !n < (if traced then 6 else 5)
    || (Unix.gettimeofday () -. t_start < !seconds && !n < 20)
  do
    let use_trace = traced && !n mod 2 = 1 in
    let r, ok =
      round spec ~seed ~traced:use_trace ~check:(!n = 0) ~out
    in
    if not ok then clean := false;
    if use_trace then tracedr := r :: !tracedr else plain := r :: !plain;
    incr n
  done;
  let plain = List.rev !plain and tracedr = List.rev !tracedr in
  let first = List.hd plain in
  let m = first.modeled in
  (* modeled results of one seed repeat exactly, traced or not *)
  let repeatable =
    List.for_all (fun r -> r.modeled = m) (plain @ tracedr)
  in
  let clean_ok, acked, lost = replay spec ~seed in
  let res = first.res in
  let host_cpu l = median (List.map (fun r -> r.res.Runner.host_cpu_s) l) in
  let host_kops = float_of_int res.Runner.attempted /. host_cpu plain /. 1e3 in
  let setup_s = median (List.map (fun r -> r.setup_s) (plain @ tracedr)) in
  let pr name v unit = Printf.printf "  %-26s %14.6f %s\n" name v unit in
  Printf.printf "end-to-end (%d untraced runs):\n" (List.length plain);
  pr "throughput_kops" m.Report.throughput_kops "kops/s (modeled)";
  pr "op_mean_us" m.Report.op_mean_us "us (modeled)";
  pr "op_p50_us" m.Report.op_p50_us "us (modeled)";
  pr "op_p99_us" m.Report.op_p99_us
    (Printf.sprintf "us (modeled; %d samples)" m.Report.samples);
  pr "op_tail_us" m.Report.op_tail_us "us (modeled; mean of the slowest 1%)";
  pr "failed_frac" m.Report.failed_frac "ratio";
  pr "lost_acked_writes" (float_of_int lost)
    (Printf.sprintf "count (of %d acked after %d replayed ops)" acked
       spec.Wl.replay_ops);
  pr "nvmm_used_mb" m.Report.nvmm_used_mb "MiB";
  pr "host_kops" host_kops "kops/s (host CPU, median)";
  Printf.printf "    host CPU s per untraced run: %s\n"
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.3f" r.res.Runner.host_cpu_s) plain));
  pr "setup_s" setup_s "s (host CPU, median)";
  pr "expected_errno_frac"
    (float_of_int res.Runner.expected /. float_of_int res.Runner.attempted)
    "ratio (completed through a predicted errno)";
  List.iter (Printf.printf "  failure: %s\n") res.Runner.failures;
  Printf.printf "  modeled metrics identical across %d untraced and %d traced runs: %b\n"
    (List.length plain) (List.length tracedr) repeatable;
  if not !clean then print_endline "  ERROR: the checker found violations after the measured phase";
  if not clean_ok then print_endline "  ERROR: the checker found violations after crash recovery";
  let correct =
    res.Runner.failed = 0 && repeatable && !clean && clean_ok && lost = 0
    && acked > 0
  in
  let metrics =
    if not traced then
      [
        ("throughput_kops", m.Report.throughput_kops, "kops/s");
        ("op_mean_us", m.Report.op_mean_us, "us");
        ("op_tail_us", m.Report.op_tail_us, "us");
        ("completed_frac", 1.0 -. m.Report.failed_frac, "ratio");
        ( "acked_kept_frac",
          (if acked = 0 then 0.0 else float_of_int (acked - lost) /. float_of_int acked),
          "ratio" );
        ("nvmm_used_mb", m.Report.nvmm_used_mb, "MiB");
        ("host_kops", host_kops, "kops/s");
        ("setup_s", setup_s, "s");
      ]
    else begin
      let t = List.hd tracedr in
      let overhead = (host_cpu tracedr /. host_cpu plain) -. 1.0 in
      Printf.printf "per-layer (traced run; spans in %s):\n" out;
      List.iter (Printf.printf "  %s\n") t.notes;
      let l =
        t.per_layer @ [ ("host.tracing_overhead", overhead) ]
      in
      List.iter (fun (k, v) -> pr k v (Report.unit_of k)) l;
      List.map (fun (k, v) -> (k, v, Report.unit_of k)) l
    end
  in
  print_endline
    (Report.result_json ~correct ~attempted:res.Runner.attempted
       ~failed:res.Runner.failed metrics)
