(* Adversarial crash-image exploration.

   The hook-based tests in test_crash.ml check the single "all
   unflushed lines lost" adversary.  Here the explorer enumerates, at
   every NVMM store and every labeled persist point, every subset of the
   unpersisted cache lines (the hardware may have evicted any of them
   early), recovers from each resulting image and runs the offline
   checker — which must find nothing, for every image, for each of the
   four Fig. 5 state machines.  A final negative test deliberately
   breaks recovery (skipping rename-log resolution) and proves the
   checker catches the damage, i.e. the oracle is not vacuous. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery
module Check = Simurgh_core.Check
module Explore = Simurgh_core.Explore
module Region = Simurgh_nvmm.Region

let assert_no_failures name (st : Explore.stats) =
  (match st.Explore.failures with
  | [] -> ()
  | (label, viols) :: _ ->
      Alcotest.failf "%s: %d violating crash image(s); first at %s: %s" name
        (List.length st.Explore.failures)
        label
        (String.concat "; " (List.map Check.violation_to_string viols)));
  Alcotest.(check bool) (name ^ ": has crash points") true
    (st.Explore.crash_points > 0);
  Alcotest.(check bool) (name ^ ": explored images") true
    (st.Explore.images >= st.Explore.crash_points)

(* Coverage pin: the exact (crash points, images, max pending lines) the
   explorer reaches on a machine.  The engine is deterministic (seeded
   sampling, single-threaded ops), so a change that explores fewer — or
   other — points or images moves a number here. *)
let coverage name (points, images, pending) (st : Explore.stats) =
  Alcotest.(check (triple int int int))
    (name ^ ": (crash points, images, max pending)")
    (points, images, pending)
    (st.Explore.crash_points, st.Explore.images, st.Explore.max_pending)

(* The Fig. 5a create on [format], its coverage pinned at [pin]. *)
let test_explore_create ~name ~format pin () =
  let st =
    Explore.run ~format
      ~setup:(fun fs -> Fs.mkdir fs "/d")
      ~op:(fun fs -> Fs.create_file fs "/d/f")
      ~verify:(fun fs ->
        (* atomicity: the file either exists as a valid file or not at
           all; a later retry must succeed either way *)
        match Fs.stat fs "/d/f" with
        | st -> Alcotest.(check bool) "kind" true (st.Types.kind = Types.File)
        | exception Errno.Err (ENOENT, _) -> Fs.create_file fs "/d/f")
      ()
  in
  assert_no_failures name st;
  coverage name pin st

let test_explore_unlink () =
  let st =
    Explore.run
      ~setup:(fun fs ->
        Fs.mkdir fs "/d";
        Fs.create_file fs "/d/f")
      ~op:(fun fs -> Fs.unlink fs "/d/f")
      ~verify:(fun fs ->
        if Fs.exists fs "/d/f" then Fs.unlink fs "/d/f";
        Fs.create_file fs "/d/f")
      ()
  in
  assert_no_failures "unlink" st

let test_explore_rename () =
  let st =
    Explore.run
      ~setup:(fun fs ->
        Fs.mkdir fs "/d";
        Fs.create_file fs "/d/old")
      ~op:(fun fs -> Fs.rename fs "/d/old" "/d/new")
      ~verify:(fun fs ->
        let o = Fs.exists fs "/d/old" and n = Fs.exists fs "/d/new" in
        if o = n then
          Alcotest.failf "rename not atomic: old=%b new=%b" o n)
      ()
  in
  assert_no_failures "rename" st

let test_explore_cross_rename () =
  let st =
    Explore.run
      ~setup:(fun fs ->
        Fs.mkdir fs "/d";
        Fs.mkdir fs "/e";
        Fs.create_file fs "/d/m")
      ~op:(fun fs -> Fs.rename fs "/d/m" "/e/m2")
      ~verify:(fun fs ->
        let s = Fs.exists fs "/d/m" and d = Fs.exists fs "/e/m2" in
        if s = d then
          Alcotest.failf "cross rename not atomic: src=%b dst=%b" s d)
      ()
  in
  assert_no_failures "cross rename" st

(* The Fig. 5a machines on the scaled format (the create is
   [test_explore_create] on [scaled_fs]), whose creates group their
   persists (DESIGN.md §9): the slab claims are pending together with
   the objects' stores until one barrier, and both commits until
   another, so every eviction subset of those lines must recover
   clean.  The pins are higher than the seed create's (32, 76, 3)
   because more lines are pending at once. *)
let scaled_fs = Explore.scaled_fs ~cores:2 ~range_locks:false ~log_ring:0

let test_explore_scaled_mkdir () =
  let st =
    Explore.run ~format:scaled_fs
      ~setup:(fun fs -> Fs.mkdir fs "/d")
      ~op:(fun fs -> Fs.mkdir fs "/d/e")
      ~verify:(fun fs ->
        (match Fs.stat fs "/d/e" with
        | st -> Alcotest.(check bool) "kind" true (st.Types.kind = Types.Dir)
        | exception Errno.Err (ENOENT, _) -> Fs.mkdir fs "/d/e");
        (* a recovered directory is usable, its first hash block too *)
        Fs.create_file fs "/d/e/x")
      ()
  in
  assert_no_failures "scaled mkdir" st;
  coverage "scaled mkdir" (39, 840, 66) st

let test_explore_scaled_hardlink () =
  let st =
    Explore.run ~format:scaled_fs
      ~setup:(fun fs ->
        Fs.mkdir fs "/d";
        Fs.create_file fs "/d/f")
      ~op:(fun fs -> Fs.hardlink fs ~existing:"/d/f" "/d/l")
      ~verify:(fun fs ->
        let f = Fs.stat fs "/d/f" in
        match Fs.stat fs "/d/l" with
        | l -> Alcotest.(check int) "same inode" f.Types.ino l.Types.ino
        | exception Errno.Err (ENOENT, _) ->
            Fs.hardlink fs ~existing:"/d/f" "/d/l")
      ()
  in
  assert_no_failures "scaled hardlink" st;
  coverage "scaled hardlink" (15, 50, 3) st

(* The same two rename state machines explored on log-ring media (ring
   of 4 slots, scaled format): every crash image — including those with a
   pending ring slot — must recover to a checker-clean ring. *)
let ring_fs = Explore.scaled_fs ~cores:2 ~range_locks:false ~log_ring:4

let test_explore_rename_ring () =
  let st =
    Explore.run ~format:ring_fs
      ~setup:(fun fs ->
        Fs.mkdir fs "/d";
        Fs.create_file fs "/d/old")
      ~op:(fun fs -> Fs.rename fs "/d/old" "/d/new")
      ~verify:(fun fs ->
        let o = Fs.exists fs "/d/old" and n = Fs.exists fs "/d/new" in
        if o = n then
          Alcotest.failf "ring rename not atomic: old=%b new=%b" o n)
      ()
  in
  assert_no_failures "rename (log ring)" st;
  coverage "rename (log ring)" (32, 55, 2) st

let test_explore_cross_rename_ring () =
  let st =
    Explore.run ~format:ring_fs
      ~setup:(fun fs ->
        Fs.mkdir fs "/d";
        Fs.mkdir fs "/e";
        Fs.create_file fs "/d/m")
      ~op:(fun fs -> Fs.rename fs "/d/m" "/e/m2")
      ~verify:(fun fs ->
        let s = Fs.exists fs "/d/m" and d = Fs.exists fs "/e/m2" in
        if s = d then
          Alcotest.failf "ring cross rename not atomic: src=%b dst=%b" s d)
      ()
  in
  assert_no_failures "cross rename (log ring)" st

(* Multi-slot pending states: a crash image that already carries TWO
   pending slots of one directory's ring (two processes died mid-rename)
   must come back checker-clean with both renames resolved, whichever
   subset of the final rename's unpersisted lines survived. *)
let test_explore_multi_slot_recovery () =
  let region = Region.create ~mode:Region.Strict (16 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 ~log_ring:4 region in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/a";
  Fs.create_file fs "/d/c";
  Fs.set_crash_hook fs (fun l ->
      if l = "rename:swap" then raise Explore.Crash_now);
  (try Fs.rename fs "/d/a" "/d/b" with Explore.Crash_now -> ());
  (try Fs.rename fs "/d/c" "/d/d" with Explore.Crash_now -> ());
  (* the power also fails: every unpersisted line is independently lost
     or durable — enumerate all images over the first 8 pending lines of
     the two-slot-pending state (every later line lost) *)
  let pending = Array.of_list (Region.pending_lines region) in
  let first = Array.sub pending 0 (min 8 (Array.length pending)) in
  let cp = Region.checkpoint region in
  let rng = Simurgh_sim.Rng.create 7L in
  let image = ref 0 in
  Explore.masks ~rng ~max_exhaustive:8 ~samples:0 first (fun keep ->
    let mask = !image in
    incr image;
    Region.restore region cp;
    Region.crash_image region ~keep;
    Fs.invalidate_shared region;
    let _ = Recovery.run region in
    (match Check.run region with
    | [] -> ()
    | viols ->
        Alcotest.failf "mask %d: %s" mask
          (String.concat "; " (List.map Check.violation_to_string viols)));
    let fs' = Fs.mount ~euid:0 region in
    if Fs.exists fs' "/d/a" = Fs.exists fs' "/d/b" then
      Alcotest.failf "mask %d: first rename not atomic" mask;
    if Fs.exists fs' "/d/c" = Fs.exists fs' "/d/d" then
      Alcotest.failf "mask %d: second rename not atomic" mask);
  Alcotest.(check int) "every image of the first 8 lines" 256 !image

(* A create that must grow the directory's hash-block chain: the new
   block's initialization dirties ~66 lines at once, pushing the crash
   points past [max_exhaustive] and into the seeded-sampling branch of
   the explorer (the adversary picks random eviction subsets). *)
let test_explore_create_chain_growth () =
  let rows = Simurgh_core.Dirblock.first_rows in
  let row_of n = Simurgh_core.Name_hash.hash n mod rows in
  let want = row_of "t" in
  let fillers =
    let rec go acc i =
      if List.length acc = Simurgh_core.Dirblock.slots_per_row then
        List.rev acc
      else
        let n = Printf.sprintf "fill%d" i in
        if row_of n = want then go (n :: acc) (i + 1) else go acc (i + 1)
    in
    go [] 0
  in
  let st =
    Explore.run ~samples:24
      ~setup:(fun fs ->
        Fs.mkdir fs "/d";
        List.iter (fun n -> Fs.create_file fs ("/d/" ^ n)) fillers)
      ~op:(fun fs -> Fs.create_file fs "/d/t")
      ~verify:(fun fs ->
        List.iter
          (fun n ->
            Alcotest.(check bool) ("filler " ^ n) true
              (Fs.exists fs ("/d/" ^ n)))
          fillers)
      ()
  in
  assert_no_failures "create with chain growth" st;
  Alcotest.(check bool) "hit the sampled branch" true
    (st.Explore.max_pending > 10);
  coverage "create with chain growth" (44, 342, 130) st

(* Negative control: recovery with rename-log resolution disabled leaves
   a pending log behind a crashed cross-directory rename, and the
   checker must say so.  Without this test a trivially-empty checker
   would pass every exploration above. *)
let test_checker_catches_broken_recovery () =
  let region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d";
  Fs.mkdir fs "/e";
  Fs.create_file fs "/d/m";
  Fs.set_crash_hook fs (fun l ->
      if l = "xrename:dstslot" then raise Explore.Crash_now);
  (try Fs.rename fs "/d/m" "/e/m2"
   with Explore.Crash_now -> Region.crash region);
  Region.clear_guard region;
  let _ = Recovery.run ~skip_log_resolution:true region in
  let viols = Check.run region in
  Alcotest.(check bool) "checker flags the unresolved rename log" true
    (List.exists
       (function Check.Log_pending _ -> true | _ -> false)
       viols);
  (* and correct recovery heals the same image *)
  let _ = Recovery.run region in
  Alcotest.(check (list string)) "full recovery passes the checker" []
    (List.map Check.violation_to_string (Check.run region))

(* Crash-during-recovery re-entrancy: crash a rename mid-flight, then
   crash RECOVERY at its own store points and labeled hooks, re-enter
   recovery on every eviction subset, and demand convergence — a media
   fixpoint within 4 passes (idempotence predicts 2) and a clean
   checker on every terminal image. *)
let test_reentrant_rename () =
  let st =
    Explore.run_reentrant
      ~setup:(fun fs ->
        Fs.mkdir fs "/d1";
        Fs.mkdir fs "/d2";
        Fs.create_file fs "/d1/a";
        Fs.create_file fs "/d2/c")
      ~op:(fun fs -> Fs.rename fs "/d1/a" "/d2/b")
      ()
  in
  (match st.Explore.reentry_failures with
  | [] -> ()
  | l :: _ ->
      Alcotest.failf "rename: %d failing re-entry image(s); first: %s"
        (List.length st.Explore.reentry_failures)
        l);
  Alcotest.(check (pair int int))
    "rename: (recovery points, re-entry images)" (44, 63)
    (st.Explore.recovery_points, st.Explore.reentry_images);
  Alcotest.(check bool) "recovery idempotent (fixpoint in 2 passes)" true
    (st.Explore.max_passes <= 2)

let test_reentrant_create () =
  let st =
    Explore.run_reentrant ~op_points:3 ~rec_stores:5
      ~setup:(fun fs -> Fs.mkdir fs "/d")
      ~op:(fun fs ->
        Fs.create_file fs "/d/f";
        Fs.create_file fs "/d/g")
      ()
  in
  (match st.Explore.reentry_failures with
  | [] -> ()
  | l :: _ ->
      Alcotest.failf "create: %d failing re-entry image(s); first: %s"
        (List.length st.Explore.reentry_failures)
        l);
  Alcotest.(check bool) "recovery idempotent (fixpoint in 2 passes)" true
    (st.Explore.max_passes <= 2)

(* The checker itself accepts a healthy populated file system. *)
let test_checker_clean_on_healthy_fs () =
  let region = Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/a";
  Fs.mkdir fs "/a/b";
  for i = 0 to 19 do
    Fs.create_file fs (Printf.sprintf "/a/f%d" i)
  done;
  let fd = Fs.openf fs Types.wronly "/a/f0" in
  ignore (Fs.append fs fd (Bytes.make 9000 'x'));
  Fs.close fs fd;
  Fs.symlink fs ~target:"/a/f0" "/a/b/l";
  Alcotest.(check (list string)) "no violations" []
    (List.map Check.violation_to_string (Check.run region))

(* -- multi-region (sharded) exploration --------------------------------

   The eviction adversary now ranges over the union of both regions'
   unpersisted lines: a crash image can lose the destination region's
   copy while keeping the source region's unlink progress and vice
   versa.  Every image must recover per-region (Recovery.run_all) to a
   checker-clean pair, and for the rename the copy+unlink contract
   holds: the source is unlinked last, so once it is gone the
   destination is complete. *)
module Shard = Simurgh_core.Shard
module Name_hash = Simurgh_core.Name_hash

let shard_dir r =
  let rec go i =
    let n = Printf.sprintf "d%d_%d" r i in
    if Name_hash.home n ~regions:2 = r then n else go (i + 1)
  in
  "/" ^ go 0

let test_explore_multi_region_rename () =
  let d0 = shard_dir 0 and d1 = shard_dir 1 in
  let src = d0 ^ "/m" and dst = d1 ^ "/m2" in
  let bytes = 128 in
  let st =
    Explore.run_multi ~regions:2
      ~setup:(fun sh ->
        Shard.mkdir sh d0;
        Shard.mkdir sh d1;
        let fd = Shard.openf sh (Types.creat Types.rdwr) src in
        ignore (Shard.pwrite sh fd ~pos:0 (Bytes.make bytes 'x'));
        Shard.close sh fd)
      ~op:(fun sh -> Shard.rename sh src dst)
      ~verify:(fun sh ->
        if not (Shard.exists sh src) then begin
          let got = Shard.stat sh dst in
          if got.Types.size <> bytes then
            failwith
              (Printf.sprintf "dest size %d after source unlink, want %d"
                 got.Types.size bytes)
        end)
      ()
  in
  assert_no_failures "xregion-rename" st;
  coverage "xregion-rename" (62, 110, 3) st

let test_explore_multi_region_creates () =
  let d0 = shard_dir 0 and d1 = shard_dir 1 in
  let st =
    Explore.run_multi ~regions:2
      ~setup:(fun sh ->
        Shard.mkdir sh d0;
        Shard.mkdir sh d1)
      ~op:(fun sh ->
        Shard.create_file sh (d0 ^ "/a");
        Shard.create_file sh (d1 ^ "/b"))
      ()
  in
  assert_no_failures "xregion-creates" st

let () =
  Alcotest.run "explore"
    [
      ( "crash-image exploration",
        [
          Alcotest.test_case "create: all images recover clean" `Quick
            (test_explore_create ~name:"create"
               ~format:(Explore.seed_fs ~cores:2) (32, 76, 3));
          Alcotest.test_case "unlink: all images recover clean" `Quick
            test_explore_unlink;
          Alcotest.test_case "rename: all images recover clean" `Quick
            test_explore_rename;
          Alcotest.test_case "cross rename: all images recover clean" `Quick
            test_explore_cross_rename;
          Alcotest.test_case "scaled create: all images recover clean"
            `Quick
            (test_explore_create ~name:"scaled create" ~format:scaled_fs
               (32, 236, 5));
          Alcotest.test_case "scaled mkdir: all images recover clean" `Quick
            test_explore_scaled_mkdir;
          Alcotest.test_case "scaled hardlink: all images recover clean"
            `Quick test_explore_scaled_hardlink;
          Alcotest.test_case "rename on log ring: all images clean" `Quick
            test_explore_rename_ring;
          Alcotest.test_case "cross rename on log ring: all images clean"
            `Quick test_explore_cross_rename_ring;
          Alcotest.test_case "two pending ring slots: all images clean" `Quick
            test_explore_multi_slot_recovery;
          Alcotest.test_case "create with chain growth (sampled)" `Quick
            test_explore_create_chain_growth;
        ] );
      ( "multi-region",
        [
          Alcotest.test_case "cross-region rename: all images clean" `Quick
            test_explore_multi_region_rename;
          Alcotest.test_case "creates on both regions: all images clean"
            `Quick test_explore_multi_region_creates;
        ] );
      ( "crash-during-recovery",
        [
          Alcotest.test_case "rename: recovery re-enters clean" `Quick
            test_reentrant_rename;
          Alcotest.test_case "create: recovery re-enters clean" `Quick
            test_reentrant_create;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean on healthy fs" `Quick
            test_checker_clean_on_healthy_fs;
          Alcotest.test_case "catches broken recovery" `Quick
            test_checker_catches_broken_recovery;
        ] );
    ]
