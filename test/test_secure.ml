(* End-to-end security tests: the Simurgh region is only accessible
   through protected functions (Section 3.2), per-user permissions are
   enforced from the fentry owner word on secure media, and multi-tenant
   adversaries (illegal entries, crashes inside protected bodies, quota
   pressure on a shared directory) are contained. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Secure = Simurgh_core.Secure
module Explore = Simurgh_core.Explore
module Check = Simurgh_core.Check
module Region = Simurgh_nvmm.Region
open Simurgh_hw

let mk () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  (region, fs, Secure.bootstrap ~euid:0 ~egid:0 fs)

let test_ops_through_protected_stubs () =
  let _, _, s = mk () in
  Secure.mkdir s "/home";
  Secure.create s "/home/file";
  let fd = Secure.openf s Types.rdwr "/home/file" in
  Alcotest.(check int) "append" 5 (Secure.append s fd (Bytes.of_string "hello"));
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Secure.pread s fd ~pos:0 ~len:5));
  Secure.close s fd;
  Alcotest.(check int) "stat size" 5 (Secure.stat s "/home/file").Types.size;
  Secure.rename s "/home/file" "/home/renamed";
  Alcotest.(check (list string)) "readdir" [ "renamed" ]
    (Secure.readdir s "/home");
  Secure.unlink s "/home/renamed";
  Secure.rmdir s "/home"

let test_user_mode_region_access_faults () =
  let region, _, s = mk () in
  ignore s;
  (* direct load/store of FS bytes from user code must fault *)
  (match Simurgh_nvmm.Region.read_u8 region 0 with
  | _ -> Alcotest.fail "user-mode read did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = false; _ }) -> ());
  match Simurgh_nvmm.Region.write_u8 region 0 0xff with
  | _ -> Alcotest.fail "user-mode write did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = true; _ }) -> ()

let test_region_accessible_inside_protected () =
  (* the stubs themselves read/write the region constantly; if the guard
     misfired inside jmpp the previous test's ops would have failed.
     Check explicitly via a custom protected probe. *)
  let region, fs, s = mk () in
  ignore fs;
  let cpu = Secure.cpu s in
  (* enter kernel mode through an existing stub path: stat reads the
     region while in kernel mode *)
  Secure.create s "/probe";
  Alcotest.(check bool) "region guarded again after pret" true
    (match Simurgh_nvmm.Region.read_u8 region 0 with
    | _ -> false
    | exception Fault.Fault _ -> true);
  Alcotest.(check bool) "cpu back in user mode" true
    (Cpu.mode cpu = Privilege.User)

let test_jmpp_raw_attacks_fault () =
  let _, _, s = mk () in
  let univ = Secure.universe s in
  let addr = Protected.address_of univ "simurgh_create" in
  let page = Page_table.page_of_addr addr in
  (* jump into the middle of a protected function *)
  (match Protected.jmpp_raw univ ((page * Page_table.page_size) + 0x123) with
  | _ -> Alcotest.fail "mid-function jmpp did not fault"
  | exception Fault.Fault (Fault.Jmpp_bad_entry_offset _) -> ());
  (* jump to a non-protected page *)
  match Protected.jmpp_raw univ (0x500 * Page_table.page_size) with
  | _ -> Alcotest.fail "unprotected jmpp did not fault"
  | exception Fault.Fault (Fault.Jmpp_target_not_protected _) -> ()

let test_ep_cannot_be_set_from_user () =
  let _, _, s = mk () in
  let cpu = Secure.cpu s in
  Page_table.map cpu.Cpu.page_table ~page:0x999 ~kernel:false ~writable:true;
  match Page_table.set_ep cpu.Cpu.page_table ~mode:(Cpu.mode cpu) ~page:0x999 with
  | _ -> Alcotest.fail "ep set from user mode"
  | exception Fault.Fault (Fault.Ep_set_from_user _) -> ()

let test_protected_mapping_cannot_be_remapped () =
  let _, _, s = mk () in
  let cpu = Secure.cpu s in
  let page = List.hd (Protected.pages (Secure.universe s)) in
  match Page_table.remap cpu.Cpu.page_table ~page ~kernel:false ~writable:true with
  | _ -> Alcotest.fail "protected mapping replaced"
  | exception Fault.Fault (Fault.Write_to_protected_mapping _) -> ()

let test_permission_checks_still_apply () =
  (* protected functions enforce the permission bits with the creds
     captured at bootstrap *)
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs ~perm:0o700 "/rootonly";
  let s = Secure.bootstrap ~euid:1000 ~egid:1000 fs in
  match Secure.create s "/rootonly/f" with
  | _ -> Alcotest.fail "EACCES expected"
  | exception Errno.Err (EACCES, _) -> ()

let test_errors_propagate_through_jmpp () =
  let _, _, s = mk () in
  (match Secure.stat s "/missing" with
  | _ -> Alcotest.fail "ENOENT expected"
  | exception Errno.Err (ENOENT, _) -> ());
  (* the CPU must be back in user mode after the exception *)
  Alcotest.(check bool) "mode restored" true
    (Cpu.mode (Secure.cpu s) = Privilege.User)

(* --- adversarial: the full ep-bit fault matrix ------------------------- *)

(* Every illegal way into the protected universe must raise the precise
   modeled fault, leave the CPU in user mode with no stranded nesting
   level, and leave the media bytes untouched. *)
let test_fault_matrix_media_unchanged () =
  let region, _, s = mk () in
  let univ = Secure.universe s in
  let cpu = Secure.cpu s in
  let digest0 = Region.media_digest region in
  let ps = Page_table.page_size in
  let page =
    Page_table.page_of_addr (Protected.address_of univ "simurgh_create")
  in
  (* (a) jmpp at every class of non-entry offset within a protected page *)
  List.iter
    (fun off ->
      match Protected.jmpp_raw univ ((page * ps) + off) with
      | () -> Alcotest.failf "jmpp at +0x%x did not fault" off
      | exception Fault.Fault (Fault.Jmpp_bad_entry_offset _) -> ())
    [ 0x001; 0x123; 0x3ff; 0x401; 0x7ff; 0x801; 0xc01; 0xfff ];
  (* (b) jmpp at an unused entry slot: the registered ops fill the last
     protected page only partially, so at least one slot is a nop *)
  let nop_faults =
    List.concat_map
      (fun pg -> List.map (fun off -> (pg * ps) + off) [ 0x0; 0x400; 0x800; 0xc00 ])
      (Protected.pages univ)
    |> List.filter (fun a ->
           match Protected.jmpp_raw univ a with
           | () -> false
           | exception Fault.Fault (Fault.Entry_is_nop _) -> true
           | exception Fault.Fault _ -> false)
  in
  Alcotest.(check bool) "an unused slot exists and is a nop" true
    (nop_faults <> []);
  (* (c) jmpp to a page that does not carry the ep bit *)
  (match Protected.jmpp_raw univ (0x777 * ps) with
  | () -> Alcotest.fail "jmpp to non-ep page did not fault"
  | exception Fault.Fault (Fault.Jmpp_target_not_protected _) -> ());
  (* (d) user-mode store to a protected-stack page *)
  let sp = List.hd (Protected.stack_pages univ) in
  (match
     Page_table.check_access cpu.Cpu.page_table ~mode:Privilege.User
       ~addr:(sp * ps) ~write:true
   with
  | () -> Alcotest.fail "user store to protected stack did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = true; _ }) -> ());
  (* (e) user-mode store to the FS region itself *)
  (match Region.write_u8 region 0 0xff with
  | _ -> Alcotest.fail "user store to region did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = true; _ }) -> ());
  (* aftermath: user mode, nothing stranded, media bit-identical, and
     the legitimate entry points still work *)
  Alcotest.(check bool) "user mode" true (Cpu.mode cpu = Privilege.User);
  Alcotest.(check string) "media unchanged by the attack battery"
    (Digest.to_hex digest0)
    (Digest.to_hex (Region.media_digest region));
  Secure.create s "/survivor";
  Alcotest.(check bool) "fs still serves" true
    ((Secure.stat s "/survivor").Types.kind = Types.File)

(* --- per-user enforcement on secure media ------------------------------ *)

let mk_secure () =
  let region = Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 ~secure:true region in
  (region, fs)

let expect_eacces f =
  match f () with
  | _ -> Alcotest.fail "EACCES expected"
  | exception Errno.Err (EACCES, _) -> ()

let test_owner_word_enforcement () =
  let _, fs = mk_secure () in
  Alcotest.(check bool) "media carries the security plane" true
    (Fs.is_secure fs);
  Fs.mkdir fs ~perm:0o777 "/home";
  (* tenant 1000 creates a private file *)
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Fs.create_file fs ~perm:0o600 "/home/mine";
  let fd = Fs.openf fs Types.wronly "/home/mine" in
  ignore (Fs.append fs fd (Bytes.of_string "secret"));
  Fs.close fs fd;
  (* a second tenant is stopped by the fentry owner word *)
  Fs.set_creds fs ~euid:1001 ~egid:1001;
  expect_eacces (fun () -> Fs.openf fs Types.rdonly "/home/mine");
  expect_eacces (fun () -> Fs.openf fs Types.wronly "/home/mine");
  expect_eacces (fun () -> Fs.chmod fs "/home/mine" 0o666);
  expect_eacces (fun () -> Fs.truncate fs "/home/mine" 0);
  (* the owner relaxes the mode; reads open up, writes stay closed *)
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Fs.chmod fs "/home/mine" 0o644;
  Fs.set_creds fs ~euid:1001 ~egid:1001;
  let fd = Fs.openf fs Types.rdonly "/home/mine" in
  Alcotest.(check string) "readable after chmod" "secret"
    (Bytes.to_string (Fs.pread fs fd ~pos:0 ~len:6));
  Fs.close fs fd;
  expect_eacces (fun () -> Fs.openf fs Types.wronly "/home/mine")

(* O_TRUNC writes the file: a tenant that may only read it must not be
   able to empty it through a read-only open *)
let test_otrunc_needs_write_permission () =
  let _, fs = mk_secure () in
  Fs.mkdir fs ~perm:0o777 "/home";
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Fs.create_file fs ~perm:0o644 "/home/f";
  let fd = Fs.openf fs Types.wronly "/home/f" in
  ignore (Fs.append fs fd (Bytes.of_string "secret"));
  Fs.close fs fd;
  Fs.set_creds fs ~euid:1001 ~egid:1001;
  expect_eacces (fun () ->
      Fs.openf fs { Types.rdonly with Types.trunc = true } "/home/f");
  Alcotest.(check int) "file keeps its bytes" 6
    (Fs.stat fs "/home/f").Types.size

let test_owner_word_travels_with_rename () =
  let _, fs = mk_secure () in
  Fs.mkdir fs ~perm:0o777 "/home";
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Fs.create_file fs ~perm:0o640 "/home/f";
  Fs.mkdir fs ~perm:0o777 "/home/sub";
  (* same-directory and cross-directory renames both preserve the
     stamped owner word (shadow-entry copy) *)
  Fs.rename fs "/home/f" "/home/g";
  Fs.rename fs "/home/g" "/home/sub/g";
  Fs.set_creds fs ~euid:1001 ~egid:1001;
  expect_eacces (fun () -> Fs.openf fs Types.rdonly "/home/sub/g");
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  let fd = Fs.openf fs Types.rdwr "/home/sub/g" in
  Fs.close fs fd

let test_readdir_needs_read_permission () =
  let _, fs = mk_secure () in
  (* 0o711: others may traverse but not list *)
  Fs.mkdir fs ~perm:0o711 "/opaque";
  Fs.create_file fs ~perm:0o644 "/opaque/f";
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Alcotest.(check bool) "traverse allowed" true (Fs.exists fs "/opaque/f");
  expect_eacces (fun () -> Fs.readdir fs "/opaque")

(* --- the resolve cache carries the owner word --------------------------- *)

(* A volume with the resolve cache on (secure media unless [secure] is
   false), a root mount and two tenant mounts sharing it (one region, one
   shared-DRAM state). *)
let mk_rcache ?(secure = true) () =
  let region = Region.create (32 * 1024 * 1024) in
  let root = Fs.mkfs ~euid:0 ~egid:0 ~secure ~rcache:true region in
  let tenant uid = Fs.mount ~euid:uid ~egid:uid region in
  (region, root, tenant 1000, tenant 1001)

let mk_secure_rcache () = mk_rcache ()

let rcache_stats fs =
  match Fs.rcache_of fs with
  | Some rc -> Simurgh_core.Rcache.stats rc
  | None -> Alcotest.fail "rcache expected"

let rcache_hits fs = (rcache_stats fs).Simurgh_core.Rcache.hits
let prefix_hits fs = (rcache_stats fs).Simurgh_core.Rcache.prefix_hits

let expect_enoent f =
  match f () with
  | _ -> Alcotest.fail "ENOENT expected"
  | exception Errno.Err (ENOENT, _) -> ()

let open_close fs path =
  let fd = Fs.openf fs Types.rdonly path in
  Fs.close fs fd

(* Tenant 1000 owns /t/a/b/f; both tenants resolve it through the warm
   cache. *)
let warm_tree root t1 t2 =
  Fs.mkdir root ~perm:0o777 "/t";
  Fs.mkdir t1 ~perm:0o755 "/t/a";
  Fs.mkdir t1 ~perm:0o755 "/t/a/b";
  Fs.create_file t1 ~perm:0o644 "/t/a/b/f";
  ignore (Fs.stat t1 "/t/a/b/f");
  open_close t1 "/t/a/b/f";
  ignore (Fs.stat t2 "/t/a/b/f");
  open_close t2 "/t/a/b/f"

(* A permission revoked by chmod on any mount is refused on the very next
   hop of every other tenant, although each hop through the directory
   and the leaf is served from the cache. *)
let test_chmod_revokes_cached_hops () =
  let _, root, t1, t2 = mk_secure_rcache () in
  warm_tree root t1 t2;
  let before = rcache_hits t2 in
  ignore (Fs.stat t2 "/t/a/b/f");
  Alcotest.(check int) "warm stat: one prefix probe and the leaf"
    (before + 2) (rcache_hits t2);
  (* a directory: traversal is revoked for others *)
  Fs.chmod root "/t/a" 0o700;
  expect_eacces (fun () -> Fs.stat t2 "/t/a/b/f");
  expect_eacces (fun () -> open_close t2 "/t/a/b/f");
  ignore (Fs.stat t1 "/t/a/b/f");
  Fs.chmod root "/t/a" 0o755;
  ignore (Fs.stat t2 "/t/a/b/f");
  open_close t2 "/t/a/b/f";
  (* the leaf: reading is revoked for others, stat still resolves *)
  Fs.chmod root "/t/a/b/f" 0o600;
  expect_eacces (fun () -> open_close t2 "/t/a/b/f");
  ignore (Fs.stat t2 "/t/a/b/f");
  open_close t1 "/t/a/b/f";
  Fs.chmod root "/t/a/b/f" 0o644;
  open_close t2 "/t/a/b/f"

(* Rename replaces a directory's fentry with a shadow that copies its
   owner word; the cache entry of the new name carries that word, and a
   chmod of the renamed directory still revokes on the next hop. *)
let test_cached_word_follows_renamed_dir () =
  let region, root, t1, t2 = mk_secure_rcache () in
  warm_tree root t1 t2;
  Fs.mkdir root ~perm:0o777 "/u";
  Fs.rename root "/t/a" "/t/z";
  Fs.rename root "/t/z" "/u/z";
  ignore (Fs.stat t2 "/u/z/b/f");
  let d, (fe, _) = Fs.resolve root "/u/z" in
  let cached =
    match Fs.rcache_of root with
    | Some rc -> Simurgh_core.Rcache.lookup rc ~dir:d.Fs.dhead "z"
    | None -> None
  in
  (match cached with
  | Some (cfe, word) ->
      Alcotest.(check int) "cache maps the shadow fentry" fe cfe;
      Alcotest.(check int) "cached word is the shadow's word"
        (Simurgh_core.Fentry.owner_word region fe)
        word;
      Alcotest.(check (triple int int int))
        "shadow word is the original's" (1000, 1000, 0o755)
        (Simurgh_core.Fentry.unpack_owner word)
  | None -> Alcotest.fail "renamed directory not cached");
  Fs.chmod root "/u/z" 0o700;
  expect_eacces (fun () -> Fs.stat t2 "/u/z/b/f");
  expect_eacces (fun () -> open_close t2 "/u/z/b/f");
  Fs.chmod root "/u/z" 0o755;
  open_close t2 "/u/z/b/f"

(* The resolve layer's cost, cycle for cycle: a warm parent costs one
   prefix probe, a hop served by the cache costs its DRAM probe only, a
   hop through a directory found by a row scan also pays
   [perm_check_cycles] for reading the owner word. *)
let test_resolve_cost_exact () =
  let _, root, tenant, _ = mk_secure_rcache () in
  List.iter (fun p -> Fs.mkdir root ~perm:0o755 p)
    [ "/a"; "/a/b"; "/a/b/c"; "/a/b/c/d" ];
  Fs.create_file root ~perm:0o644 "/a/b/c/d/f";
  let rc =
    match Fs.rcache_of root with
    | Some rc -> rc
    | None -> Alcotest.fail "rcache expected"
  in
  let cm = Simurgh_sim.Cost_model.default in
  let hit = cm.Simurgh_sim.Cost_model.rcache_hit_cycles
  and perm = cm.Simurgh_sim.Cost_model.perm_check_cycles in
  (* a fresh machine per measurement: no device queue carries over *)
  let cost fs path =
    let thr = Simurgh_sim.Sthread.create 0 in
    let ctx = Simurgh_sim.Machine.ctx (Simurgh_sim.Machine.create ()) thr in
    ignore (Fs.stat ~ctx fs path);
    Simurgh_sim.Machine.now ctx
  in
  let path = "/a/b/c/d/f" in
  (* entry + the two inode lines: the root resolves with no hop *)
  let base = cost tenant "/" in
  ignore (Fs.stat tenant path);
  (* the prefix probe reaches /a/b/c/d, the leaf probe finds f *)
  Alcotest.(check (float 0.0)) "warm depth-5 stat"
    (base +. (2.0 *. hit))
    (cost tenant path);
  (* the tenant pays over root (who skips every check) exactly one
     [perm_check_cycles] per hop whose directory came from a miss *)
  let overhead prepare =
    prepare ();
    let t = cost tenant path in
    prepare ();
    t -. cost root path
  in
  Alcotest.(check (float 0.0)) "warm: no hop check" 0.0 (overhead ignore);
  Alcotest.(check (float 0.0)) "cold: every hop" (5.0 *. perm)
    (overhead (fun () -> Simurgh_core.Rcache.clear rc));
  let a, _ = Fs.resolve root "/a/b" in
  Alcotest.(check (float 0.0)) "one directory missed: root + that hop"
    (2.0 *. perm)
    (overhead (fun () ->
         Simurgh_core.Rcache.invalidate rc ~dir:a.Fs.dhead "b";
         Simurgh_core.Rcache.drop_prefixes rc))

(* --- the resolve cache's prefix entries ---------------------------------- *)

(* chmod of an intermediate directory revokes traversal for the other
   tenant on its very next stat/openf, although both tenants hold a warm
   prefix entry through it; on legacy media the hop check reads the
   inode, which a prefix hit skips just the same. *)
let test_prefix_chmod_revokes ~secure () =
  let _, root, t1, t2 = mk_rcache ~secure () in
  warm_tree root t1 t2;
  let hits = prefix_hits t2 in
  ignore (Fs.stat t2 "/t/a/b/f");
  Alcotest.(check int) "the warm parent is one prefix hit" (hits + 1)
    (prefix_hits t2);
  Fs.chmod t1 "/t/a" 0o700;
  expect_eacces (fun () -> Fs.stat t2 "/t/a/b/f");
  expect_eacces (fun () -> open_close t2 "/t/a/b/f");
  ignore (Fs.stat t1 "/t/a/b/f");
  open_close t1 "/t/a/b/f";
  (* a second warm round is still refused *)
  expect_eacces (fun () -> Fs.stat t2 "/t/a/b/f");
  Fs.chmod t1 "/t/a" 0o755;
  ignore (Fs.stat t2 "/t/a/b/f");
  open_close t2 "/t/a/b/f"

(* A renamed intermediate directory: the old path is gone, the new one
   resolves -- same-directory and cross-directory alike. *)
let test_prefix_follows_renamed_dir () =
  let _, root, t1, t2 = mk_secure_rcache () in
  warm_tree root t1 t2;
  Fs.rename t1 "/t/a" "/t/z";
  expect_enoent (fun () -> Fs.stat t2 "/t/a/b/f");
  expect_enoent (fun () -> open_close t2 "/t/a/b/f");
  ignore (Fs.stat t2 "/t/z/b/f");
  open_close t2 "/t/z/b/f";
  Fs.mkdir root ~perm:0o777 "/u";
  Fs.rename t1 "/t/z/b" "/u/b";
  expect_enoent (fun () -> Fs.stat t2 "/t/z/b/f");
  ignore (Fs.stat t2 "/u/b/f");
  (* moving it back revives the first spelling *)
  Fs.rename t1 "/u/b" "/t/z/b";
  expect_enoent (fun () -> Fs.stat t2 "/u/b/f");
  ignore (Fs.stat t2 "/t/z/b/f")

(* rmdir and mkdir of the same name: the prefix resolves the new
   directory, with the new directory's rights. *)
let test_prefix_rmdir_mkdir () =
  let _, root, t1, t2 = mk_secure_rcache () in
  warm_tree root t1 t2;
  Fs.unlink t1 "/t/a/b/f";
  Fs.rmdir t1 "/t/a/b";
  expect_enoent (fun () -> Fs.stat t2 "/t/a/b/f");
  Fs.mkdir t1 ~perm:0o755 "/t/a/b";
  Fs.create_file t1 ~perm:0o644 "/t/a/b/g";
  expect_enoent (fun () -> Fs.stat t2 "/t/a/b/f");
  ignore (Fs.stat t2 "/t/a/b/g");
  ignore (Fs.stat t2 "/t/a/b/g");
  (* once more, and the new directory is private to its owner *)
  Fs.unlink t1 "/t/a/b/g";
  Fs.rmdir t1 "/t/a/b";
  Fs.mkdir t1 ~perm:0o700 "/t/a/b";
  Fs.create_file t1 ~perm:0o644 "/t/a/b/g";
  expect_eacces (fun () -> Fs.stat t2 "/t/a/b/g");
  ignore (Fs.stat t1 "/t/a/b/g")

(* A prefix through a symlink is never cached: retargeting the link
   makes the very next resolve follow the new target. *)
let test_prefix_symlink_retarget () =
  let _, root, t1, t2 = mk_secure_rcache () in
  warm_tree root t1 t2;
  Fs.mkdir t1 ~perm:0o755 "/t/x";
  Fs.mkdir t1 ~perm:0o755 "/t/x/b";
  Fs.create_file t1 ~perm:0o644 "/t/x/b/f";
  let fd = Fs.openf t1 Types.wronly "/t/x/b/f" in
  ignore (Fs.append t1 fd (Bytes.of_string "xx"));
  Fs.close t1 fd;
  Fs.symlink t1 ~target:"/t/a" "/t/l";
  let size p = (Fs.stat t2 p).Types.size in
  Alcotest.(check int) "through /t/a" 0 (size "/t/l/b/f");
  Alcotest.(check int) "through /t/a, warm" 0 (size "/t/l/b/f");
  Fs.unlink t1 "/t/l";
  Fs.symlink t1 ~target:"/t/x" "/t/l";
  Alcotest.(check int) "through /t/x" 2 (size "/t/l/b/f");
  Alcotest.(check int) "through /t/x, warm" 2 (size "/t/l/b/f");
  open_close t2 "/t/l/b/f";
  (* a link into a directory the tenant may not traverse *)
  Fs.chmod t1 "/t/x/b" 0o700;
  expect_eacces (fun () -> Fs.stat t2 "/t/l/b/f");
  ignore (Fs.stat t1 "/t/l/b/f")

(* Two tenants with opposite rights on one prefix each get their own
   answer, warm or cold, in either order -- whether the credentials come
   from the mounts or from the calling threads of one mount. *)
let test_prefix_per_credentials () =
  let _, root, t1, t2 = mk_secure_rcache () in
  Fs.mkdir root ~perm:0o777 "/t";
  Fs.mkdir t1 ~perm:0o777 "/t/p";
  Fs.mkdir t1 ~perm:0o777 "/t/p/q";
  Fs.create_file t1 ~perm:0o644 "/t/p/q/f";
  (* owner may traverse, others not *)
  Fs.chmod t1 "/t/p" 0o700;
  for _ = 1 to 2 do
    ignore (Fs.stat t1 "/t/p/q/f");
    expect_eacces (fun () -> Fs.stat t2 "/t/p/q/f")
  done;
  (* the opposite: others may, the owner not *)
  Fs.chmod t1 "/t/p" 0o007;
  for _ = 1 to 2 do
    expect_eacces (fun () -> Fs.stat t1 "/t/p/q/f");
    open_close t2 "/t/p/q/f"
  done;
  (* one mount, the identity carried by each thread *)
  let ctx tid uid =
    let thr = Simurgh_sim.Sthread.create tid in
    Simurgh_sim.Sthread.set_creds thr ~euid:uid ~egid:uid;
    Simurgh_sim.Machine.ctx (Simurgh_sim.Machine.create ()) thr
  in
  let c1 = ctx 1 1000 and c2 = ctx 2 1001 in
  for _ = 1 to 2 do
    ignore (Fs.stat ~ctx:c2 root "/t/p/q/f");
    expect_eacces (fun () -> Fs.stat ~ctx:c1 root "/t/p/q/f");
    ignore (Fs.stat root "/t/p/q/f")
  done

(* --- adversarial: crash inside a protected rename ---------------------- *)

(* The crash-image explorer composes with the security plane: every
   store-granular crash point of a rename now sits between jmpp and
   pret, every image must recover fsck-clean, and the recovered mount
   (a fresh "process" with its own protected universe) stays atomic. *)
let test_crash_inside_protected_rename () =
  let st =
    Explore.run ~format:(fun r -> Fs.mkfs ~cores:2 ~euid:0 ~secure:true r)
      ~setup:(fun fs ->
        Fs.mkdir fs "/a";
        Fs.mkdir fs "/b";
        Fs.create_file fs "/a/f")
      ~op:(fun fs -> Fs.rename fs "/a/f" "/b/g")
      ~verify:(fun fs ->
        let s = Fs.exists fs "/a/f" and d = Fs.exists fs "/b/g" in
        if s = d then
          Alcotest.failf "protected rename not atomic: src=%b dst=%b" s d)
      ()
  in
  (match st.Explore.failures with
  | [] -> ()
  | (label, viols) :: _ ->
      Alcotest.failf "%d violating crash image(s); first at %s: %s"
        (List.length st.Explore.failures)
        label
        (String.concat "; " (List.map Check.violation_to_string viols)));
  Alcotest.(check bool) "explored crash points inside the gate" true
    (st.Explore.crash_points > 0)

(* --- adversarial: two tenants under per-uid quotas --------------------- *)

let test_two_tenant_quota_scenario () =
  let region = Region.create (64 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 ~secure:true ~striped_locks:true region in
  Fs.mkdir fs ~perm:0o777 "/shared";
  (* block size 256 B; each op appends 4 KiB = 16 blocks.  Tenant A has
     room for every write, tenant B hits the wall after 4 appends. *)
  Fs.set_quota fs ~uid:2001 ~blocks:4096;
  Fs.set_quota fs ~uid:2002 ~blocks:64;
  let machine = Simurgh_sim.Machine.create () in
  let denials = ref 0 and appends = Array.make 2 0 in
  let op (ctx : Simurgh_sim.Machine.ctx) j =
    let thr = ctx.Simurgh_sim.Machine.thr in
    let tenant = thr.Simurgh_sim.Sthread.tid land 1 in
    let uid = 2001 + tenant in
    Simurgh_sim.Sthread.set_creds thr ~euid:uid ~egid:uid;
    let path =
      Printf.sprintf "/shared/u%d_t%d_f%d" uid thr.Simurgh_sim.Sthread.tid j
    in
    try
      Fs.create_file ~ctx fs path;
      let fd = Fs.openf ~ctx fs Types.wronly path in
      Fun.protect
        ~finally:(fun () -> Fs.close ~ctx fs fd)
        (fun () ->
          ignore (Fs.append ~ctx fs fd (Bytes.make 4096 'q'));
          appends.(tenant) <- appends.(tenant) + 1)
    with Errno.Err (EDQUOT, _) -> incr denials
  in
  ignore (Simurgh_sim.Engine.run_ops machine ~threads:4 ~ops_per_thread:16 op);
  (* tenant A never hit its limit; tenant B was denied, never exceeded
     its budget, and its partial progress was accounted exactly *)
  Alcotest.(check int) "tenant A fully served" 32 appends.(0);
  Alcotest.(check int) "tenant B stopped at its budget" 4 appends.(1);
  Alcotest.(check bool) "tenant B denied" true (!denials > 0);
  Alcotest.(check int) "tenant B used == limit" 64
    (Fs.quota_used fs ~uid:2002);
  Alcotest.(check bool) "tenant A within limit" true
    (Fs.quota_used fs ~uid:2001 <= 4096);
  (* charge/release balance: freeing every file of a tenant returns the
     budget to zero, even though another tenant's files stay *)
  List.iter
    (fun n ->
      if String.length n >= 5 && String.sub n 0 5 = "u2002" then
        Fs.unlink fs ("/shared/" ^ n))
    (Fs.readdir fs "/shared");
  Alcotest.(check int) "tenant B released on unlink" 0
    (Fs.quota_used fs ~uid:2002);
  Alcotest.(check bool) "tenant A unaffected by B's frees" true
    (Fs.quota_used fs ~uid:2001 > 0);
  (* the hammered region is structurally sound *)
  Alcotest.(check (list string)) "fsck clean" []
    (List.map Check.violation_to_string (Check.run region))

let () =
  Alcotest.run "secure"
    [
      ( "secure",
        [
          Alcotest.test_case "ops via protected stubs" `Quick
            test_ops_through_protected_stubs;
          Alcotest.test_case "user region access faults" `Quick
            test_user_mode_region_access_faults;
          Alcotest.test_case "guard restored after pret" `Quick
            test_region_accessible_inside_protected;
          Alcotest.test_case "jmpp attacks fault" `Quick
            test_jmpp_raw_attacks_fault;
          Alcotest.test_case "ep from user faults" `Quick
            test_ep_cannot_be_set_from_user;
          Alcotest.test_case "remap protected faults" `Quick
            test_protected_mapping_cannot_be_remapped;
          Alcotest.test_case "permissions enforced" `Quick
            test_permission_checks_still_apply;
          Alcotest.test_case "errors propagate" `Quick
            test_errors_propagate_through_jmpp;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "ep-bit fault matrix, media unchanged" `Quick
            test_fault_matrix_media_unchanged;
          Alcotest.test_case "crash inside protected rename" `Slow
            test_crash_inside_protected_rename;
          Alcotest.test_case "two tenants under quotas" `Quick
            test_two_tenant_quota_scenario;
        ] );
      ( "per-user",
        [
          Alcotest.test_case "owner word enforcement" `Quick
            test_owner_word_enforcement;
          Alcotest.test_case "O_TRUNC needs write permission" `Quick
            test_otrunc_needs_write_permission;
          Alcotest.test_case "owner word travels with rename" `Quick
            test_owner_word_travels_with_rename;
          Alcotest.test_case "readdir needs read permission" `Quick
            test_readdir_needs_read_permission;
        ] );
      ( "resolve-cache",
        [
          Alcotest.test_case "chmod revokes cached hops across tenants" `Quick
            test_chmod_revokes_cached_hops;
          Alcotest.test_case "cached word follows a renamed directory" `Quick
            test_cached_word_follows_renamed_dir;
          Alcotest.test_case "resolve cost is cycle-exact" `Quick
            test_resolve_cost_exact;
          Alcotest.test_case "prefix: chmod revokes traversal (secure)" `Quick
            (test_prefix_chmod_revokes ~secure:true);
          Alcotest.test_case "prefix: chmod revokes traversal (legacy)" `Quick
            (test_prefix_chmod_revokes ~secure:false);
          Alcotest.test_case "prefix: renamed intermediate directory" `Quick
            test_prefix_follows_renamed_dir;
          Alcotest.test_case "prefix: rmdir and mkdir of the same name" `Quick
            test_prefix_rmdir_mkdir;
          Alcotest.test_case "prefix: retargeted symlink" `Quick
            test_prefix_symlink_retarget;
          Alcotest.test_case "prefix: per-credential answers" `Quick
            test_prefix_per_credentials;
        ] );
    ]
