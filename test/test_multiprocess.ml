(* Multi-process cooperation: the paper's central claim is that
   *independent processes* modify shared persistent structures directly,
   coordinated only through NVMM and shared DRAM.  A second Fs.mount of
   the same region models a second process: it must share the allocator
   caches and the lock registry (shared DRAM) while keeping its own
   open-file map and credentials. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs

let fresh_pair () =
  let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in
  let p1 = Fs.mkfs ~euid:0 region in
  let p2 = Fs.mount ~euid:0 region in
  (region, p1, p2)

let test_visibility () =
  let _, p1, p2 = fresh_pair () in
  Fs.mkdir p1 "/shared";
  Fs.create_file p1 "/shared/from-p1";
  (* visible to the other process immediately, no remount *)
  Alcotest.(check bool) "p2 sees p1's file" true (Fs.exists p2 "/shared/from-p1");
  Fs.unlink p2 "/shared/from-p1";
  Alcotest.(check bool) "p1 sees p2's delete" false
    (Fs.exists p1 "/shared/from-p1")

let test_no_allocation_collision () =
  let _, p1, p2 = fresh_pair () in
  Fs.mkdir p1 "/d";
  (* alternating creates from the two processes share the slab caches:
     every inode must be distinct *)
  for i = 0 to 199 do
    let fs = if i mod 2 = 0 then p1 else p2 in
    Fs.create_file fs (Printf.sprintf "/d/f%03d" i)
  done;
  let inos = Hashtbl.create 256 in
  List.iter
    (fun n ->
      let st = Fs.stat p1 ("/d/" ^ n) in
      Alcotest.(check bool) ("unique inode for " ^ n) false
        (Hashtbl.mem inos st.Types.ino);
      Hashtbl.replace inos st.Types.ino ())
    (Fs.readdir p2 "/d");
  Alcotest.(check int) "all files present" 200 (List.length (Fs.readdir p1 "/d"))

let test_data_flows_between_processes () =
  let _, p1, p2 = fresh_pair () in
  Fs.create_file p1 "/msg";
  let fd = Fs.openf p1 Types.wronly "/msg" in
  ignore (Fs.append p1 fd (Bytes.of_string "hello from p1"));
  Fs.close p1 fd;
  let fd = Fs.openf p2 Types.rdonly "/msg" in
  Alcotest.(check string) "p2 reads p1's bytes" "hello from p1"
    (Bytes.to_string (Fs.pread p2 fd ~pos:0 ~len:64));
  Fs.close p2 fd

let test_fd_tables_are_private () =
  let _, p1, p2 = fresh_pair () in
  Fs.create_file p1 "/a";
  Fs.create_file p1 "/b";
  let fd1 = Fs.openf p1 Types.rdonly "/a" in
  let fd2 = Fs.openf p2 Types.rdonly "/b" in
  (* same descriptor number in both processes, different files *)
  Alcotest.(check int) "same fd number" fd1 fd2;
  Fs.close p1 fd1;
  (* p2's descriptor is unaffected by p1's close *)
  ignore (Fs.pread p2 fd2 ~pos:0 ~len:0);
  Fs.close p2 fd2

let test_per_process_credentials () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let root = Fs.mkfs ~euid:0 region in
  let user = Fs.mount ~euid:1000 ~egid:1000 region in
  Fs.mkdir root ~perm:0o700 "/private";
  Fs.mkdir root ~perm:0o777 "/public";
  (match Fs.create_file user "/private/x" with
  | _ -> Alcotest.fail "EACCES expected"
  | exception Errno.Err (EACCES, _) -> ());
  Fs.create_file user "/public/ok";
  Alcotest.(check int) "owned by the creating process's uid" 1000
    (Fs.stat root "/public/ok").Types.uid

let test_cross_process_rename_and_recovery () =
  let region, p1, p2 = fresh_pair () in
  Fs.mkdir p1 "/a";
  Fs.mkdir p2 "/b";
  for i = 0 to 49 do
    Fs.create_file p1 (Printf.sprintf "/a/f%02d" i)
  done;
  for i = 0 to 49 do
    Fs.rename p2 (Printf.sprintf "/a/f%02d" i) (Printf.sprintf "/b/g%02d" i)
  done;
  Alcotest.(check int) "a emptied" 0 (List.length (Fs.readdir p1 "/a"));
  Alcotest.(check int) "b filled" 50 (List.length (Fs.readdir p1 "/b"));
  (* a full recovery of the shared region finds it consistent *)
  let _, report = Simurgh_core.Recovery.run region in
  Alcotest.(check int) "no repairs needed" 0
    (report.Simurgh_core.Recovery.completed_deletes
    + report.Simurgh_core.Recovery.completed_renames
    + report.Simurgh_core.Recovery.rolled_back_renames);
  Alcotest.(check int) "all files accounted" 50
    report.Simurgh_core.Recovery.files

let test_virtual_time_contention_across_processes () =
  (* two mounts driven by two simulated threads contend on the same
     shared directory row locks, exactly like two threads of one mount *)
  let open Simurgh_sim in
  let region = Simurgh_nvmm.Region.create (128 * 1024 * 1024) in
  let p1 = Fs.mkfs ~euid:0 region in
  let p2 = Fs.mount ~euid:0 region in
  Fs.mkdir p1 "/spool";
  let m = Machine.create () in
  let handles = [| p1; p2 |] in
  let o =
    Engine.run_ops m ~threads:2 ~ops_per_thread:500 (fun ctx i ->
        let tid = ctx.Machine.thr.Sthread.tid in
        Fs.create_file ~ctx handles.(tid)
          (Printf.sprintf "/spool/p%d-%d" tid i))
  in
  Alcotest.(check int) "all creates landed" 1000
    (List.length (Fs.readdir p1 "/spool"));
  Alcotest.(check bool) "virtual time advanced" true
    (o.Engine.makespan_cycles > 0.0)

(* --- the volume is the configuration ------------------------------------- *)

(* The locking and caching protocols are recorded at mkfs: a later mount
   that names none of them must still run the same ones, or two
   processes running different append protocols lose each other's
   bytes.  Three 4-byte appends to one file, alternating between the
   mounts, must all land: [p1] appends A, [p2] B, [p1] C. *)
let interleaved_appends p1 p2 =
  Fs.create_file p1 "/log";
  let fd1 = Fs.openf p1 Types.wronly "/log" in
  let fd2 = Fs.openf p2 Types.wronly "/log" in
  ignore (Fs.append p1 fd1 (Bytes.of_string "AAAA"));
  ignore (Fs.append p2 fd2 (Bytes.of_string "BBBB"));
  ignore (Fs.append p1 fd1 (Bytes.of_string "CCCC"));
  Fs.close p1 fd1;
  Fs.close p2 fd2;
  let fd = Fs.openf p2 Types.rdonly "/log" in
  let data = Bytes.to_string (Fs.pread p2 fd ~pos:0 ~len:64) in
  Fs.close p2 fd;
  Alcotest.(check (pair int string))
    "all three appends kept" (12, "AAAABBBBCCCC")
    ((Fs.stat p2 "/log").Types.size, data)

let test_plain_joiner_inherits_range_locks () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let p1 = Fs.mkfs ~euid:0 ~range_locks:true region in
  let p2 = Fs.mount ~euid:0 region in
  interleaved_appends p1 p2

let test_recovered_mount_keeps_features () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let fs =
    Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~range_locks:true region
  in
  Fs.mkdir fs "/d";
  let p1, _ = Simurgh_core.Recovery.mount_after_crash ~euid:0 region in
  Alcotest.(check bool) "striped locks" true
    (Simurgh_core.Locks.striped (Fs.locks p1));
  Alcotest.(check bool) "resolve cache" true (Fs.rcache_of p1 <> None);
  let p2 = Fs.mount ~euid:0 ~range_locks:true region in
  interleaved_appends p1 p2

let test_mount_disagreeing_range_locks () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  ignore (Fs.mkfs ~euid:0 ~range_locks:true region);
  match Fs.mount ~euid:0 ~range_locks:false region with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "multiprocess"
    [
      ( "shared-region",
        [
          Alcotest.test_case "visibility" `Quick test_visibility;
          Alcotest.test_case "no allocation collision" `Quick
            test_no_allocation_collision;
          Alcotest.test_case "data flows" `Quick
            test_data_flows_between_processes;
          Alcotest.test_case "private fd tables" `Quick
            test_fd_tables_are_private;
          Alcotest.test_case "per-process creds" `Quick
            test_per_process_credentials;
          Alcotest.test_case "cross-process rename + recovery" `Quick
            test_cross_process_rename_and_recovery;
          Alcotest.test_case "contention across processes" `Quick
            test_virtual_time_contention_across_processes;
        ] );
      ( "features",
        [
          Alcotest.test_case "plain joiner inherits range locks" `Quick
            test_plain_joiner_inherits_range_locks;
          Alcotest.test_case "recovered mount keeps features" `Quick
            test_recovered_mount_keeps_features;
          Alcotest.test_case "disagreeing range_locks refused" `Quick
            test_mount_disagreeing_range_locks;
        ] );
    ]
