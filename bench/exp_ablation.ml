(** Ablation study: the design choices DESIGN.md calls out, measured on
    the createfile-shared and resolvepath-shared microbenchmarks.

    - entry mechanism: jmpp (+46 cycles) vs. a kernel trap vs. free;
    - per-line busy flags vs. one lock per directory;
    - segmented block allocator (2x cores) vs. a single segment;
    - per-file write lock vs. relaxed writes (also in Fig. 7k). *)

open Simurgh_workloads
module Fx = Fxmark.Make (Simurgh_core.Fs)

let mk ?(region_mb = 512) ?segments ?call_mode ?relaxed_writes
    ?coarse_dir_locks () =
  let region = Simurgh_nvmm.Region.create (region_mb * 1024 * 1024) in
  Simurgh_core.Fs.mkfs ~euid:0 ?segments ?call_mode ?relaxed_writes
    ?coarse_dir_locks region

let run_variant name fresh bench ~ops =
  Util.row_header name;
  List.iter
    (fun threads ->
      let fs = fresh () in
      let m = Simurgh_sim.Machine.create () in
      let r = Fx.run m fs bench ~threads ~ops in
      Printf.printf " %9.0f" (Util.kops r.Fxmark.throughput))
    Util.thread_counts;
  print_newline ()

let run ~scale =
  let ops = Util.scaled ~scale 2000 in
  Util.header "ablation: entry mechanism (createfile shared dir, Kops/s)";
  Util.print_thread_header Util.thread_counts;
  run_variant "jmpp (+46cyc)" (fun () -> mk ()) Fxmark.Create_shared ~ops;
  run_variant "syscall entry"
    (fun () -> mk ~call_mode:Simurgh_core.Fs.Syscall ())
    Fxmark.Create_shared ~ops;
  run_variant "plain call"
    (fun () -> mk ~call_mode:Simurgh_core.Fs.Plain ())
    Fxmark.Create_shared ~ops;

  Util.header "ablation: entry mechanism (resolvepath shared prefix, Kops/s)";
  Util.print_thread_header Util.thread_counts;
  run_variant "jmpp (+46cyc)" (fun () -> mk ()) Fxmark.Resolve_shared
    ~ops:(2 * ops);
  run_variant "syscall entry"
    (fun () -> mk ~call_mode:Simurgh_core.Fs.Syscall ())
    Fxmark.Resolve_shared ~ops:(2 * ops);

  Util.header "ablation: directory locking (createfile shared dir, Kops/s)";
  Util.print_thread_header Util.thread_counts;
  run_variant "per-line busy" (fun () -> mk ()) Fxmark.Create_shared ~ops;
  run_variant "whole-dir lock"
    (fun () -> mk ~coarse_dir_locks:true ())
    Fxmark.Create_shared ~ops;

  Util.header "ablation: block allocator (fallocate, Kops/s)";
  Util.print_thread_header Util.thread_counts;
  (* 16 ops x 4 MiB x 10 threads needs ~1 GiB with headroom *)
  run_variant "segmented (20)"
    (fun () -> mk ~region_mb:1536 ())
    Fxmark.Fallocate_private ~ops:16;
  run_variant "single segment"
    (fun () -> mk ~region_mb:1536 ~segments:1 ())
    Fxmark.Fallocate_private ~ops:16;

  Util.header "ablation: shared-file write lock (overwrite shared, Kops/s)";
  Util.print_thread_header Util.thread_counts;
  run_variant "per-file lock" (fun () -> mk ()) Fxmark.Overwrite_shared ~ops;
  run_variant "relaxed"
    (fun () -> mk ~relaxed_writes:true ())
    Fxmark.Overwrite_shared ~ops
