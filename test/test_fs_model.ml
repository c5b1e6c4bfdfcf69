(* Model-based testing: Simurgh against a pure functional specification
   (a map from paths to contents) under random operation sequences. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs

module M = Map.Make (String)

(* The model: directories and files with contents. *)
type model = { dirs : unit M.t; files : string M.t }

let empty_model = { dirs = M.add "/" () M.empty; files = M.empty }

let parent_of path = Path.dirname path

type op =
  | Create of string
  | Mkdir of string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Write of string * string
  | Append of string * string
  | StatCheck of string

let pp_op = function
  | Create p -> "create " ^ p
  | Mkdir p -> "mkdir " ^ p
  | Unlink p -> "unlink " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | Write (p, s) -> Printf.sprintf "write %s (%d bytes)" p (String.length s)
  | Append (p, s) -> Printf.sprintf "append %s (%d bytes)" p (String.length s)
  | StatCheck p -> "stat " ^ p

(* Candidate paths: two directory levels, small name space, so ops
   frequently collide with existing state. *)
let path_gen =
  QCheck.Gen.(
    let name = map (Printf.sprintf "n%d") (int_range 0 5) in
    let dir = map (Printf.sprintf "/d%d") (int_range 0 2) in
    oneof
      [
        map (fun n -> "/" ^ n) name;
        map2 (fun d n -> d ^ "/" ^ n) dir name;
      ])

let dir_gen = QCheck.Gen.(map (Printf.sprintf "/d%d") (int_range 0 2))

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun p -> Create p) path_gen);
        (2, map (fun d -> Mkdir d) dir_gen);
        (2, map (fun p -> Unlink p) path_gen);
        (1, map (fun d -> Rmdir d) dir_gen);
        (2, map2 (fun a b -> Rename (a, b)) path_gen path_gen);
        ( 2,
          map2
            (fun p n -> Write (p, String.make (n + 1) 'w'))
            path_gen (int_range 0 200) );
        ( 2,
          map2
            (fun p n -> Append (p, String.make (n + 1) 'a'))
            path_gen (int_range 0 100) );
        (2, map (fun p -> StatCheck p) path_gen);
      ])

(* Apply to the model, mirroring POSIX semantics; returns updated model +
   whether the op should succeed. *)
let model_apply m op =
  let dir_exists d = M.mem d m.dirs in
  let parent_ok p = dir_exists (parent_of p) in
  let exists p = M.mem p m.files || M.mem p m.dirs in
  match op with
  | Create p ->
      if (not (parent_ok p)) || exists p then (m, false)
      else ({ m with files = M.add p "" m.files }, true)
  | Mkdir d ->
      if exists d then (m, false)
      else ({ m with dirs = M.add d () m.dirs }, true)
  | Unlink p ->
      if M.mem p m.files then ({ m with files = M.remove p m.files }, true)
      else (m, false)
  | Rmdir d ->
      if
        M.mem d m.dirs && d <> "/"
        && not
             (M.exists (fun p _ -> parent_of p = d) m.files
             || M.exists
                  (fun p _ -> p <> "/" && p <> d && parent_of p = d)
                  m.dirs)
      then ({ m with dirs = M.remove d m.dirs }, true)
      else (m, false)
  | Rename (a, b) ->
      (* file-to-file renames only (directory renames are tested in
         test_fs); destination may be replaced if it is a file *)
      if a = b then (m, M.mem a m.files)
      else if M.mem a m.files && parent_ok b && not (M.mem b m.dirs) then
        let content = M.find a m.files in
        ({ m with files = M.add b content (M.remove a m.files) }, true)
      else (m, false)
  | Write (p, s) ->
      if M.mem p m.files then ({ m with files = M.add p s m.files }, true)
      else (m, false)
  | Append (p, s) ->
      if M.mem p m.files then
        let old = M.find p m.files in
        ({ m with files = M.add p (old ^ s) m.files }, true)
      else (m, false)
  | StatCheck _ -> (m, true)

let is_file fs p =
  match Fs.stat fs p with
  | st -> st.Types.kind = Types.File
  | exception Errno.Err _ -> false

let fs_apply fs op =
  match op with
  | Create p -> ( try Fs.create_file fs p; true with Errno.Err _ -> false)
  | Mkdir d -> ( try Fs.mkdir fs d; true with Errno.Err _ -> false)
  | Unlink p -> ( try Fs.unlink fs p; true with Errno.Err _ -> false)
  | Rmdir d -> ( try Fs.rmdir fs d; true with Errno.Err _ -> false)
  | Rename (a, b) ->
      (* mirror the model's file-only rename semantics *)
      if not (is_file fs a) then false
      else if a <> b && Fs.exists fs b && not (is_file fs b) then false
      else ( try Fs.rename fs a b; true with Errno.Err _ -> false)
  | Write (p, s) -> (
      if not (is_file fs p) then false
      else
        try
          Fs.truncate fs p 0;
          let fd = Fs.openf fs Types.rdwr p in
          ignore (Fs.pwrite fs fd ~pos:0 (Bytes.of_string s));
          Fs.close fs fd;
          true
        with Errno.Err _ -> false)
  | Append (p, s) -> (
      if not (is_file fs p) then false
      else
        try
          let fd = Fs.openf fs Types.wronly p in
          ignore (Fs.append fs fd (Bytes.of_string s));
          Fs.close fs fd;
          true
        with Errno.Err _ -> false)
  | StatCheck _ -> true

let read_file fs p =
  let st = Fs.stat fs p in
  let fd = Fs.openf fs Types.rdonly p in
  let b = Fs.pread fs fd ~pos:0 ~len:st.Types.size in
  Fs.close fs fd;
  Bytes.to_string b

(* Final consistency: every model file exists in the FS with the same
   content; every model dir exists. *)
let check_against_model fs m =
  M.for_all
    (fun p content ->
      match read_file fs p with
      | c -> c = content
      | exception Errno.Err _ -> false)
    m.files
  && M.for_all
       (fun d () ->
         d = "/"
         ||
         match Fs.stat fs d with
         | st -> st.Types.kind = Types.Dir
         | exception Errno.Err _ -> false)
       m.dirs

let run_ops fs ops ~remount_every =
  let fsr = ref fs in
  let region = Fs.region fs in
  let count = ref 0 in
  let final_model =
    List.fold_left
      (fun m op ->
        incr count;
        if remount_every > 0 && !count mod remount_every = 0 then begin
          Fs.unmount !fsr;
          fsr := Fs.mount ~euid:0 region
        end;
        let m', model_ok = model_apply m op in
        let fs_ok = fs_apply !fsr op in
        if model_ok <> fs_ok then
          QCheck.Test.fail_reportf "divergence on %s: model=%b fs=%b"
            (pp_op op) model_ok fs_ok;
        m')
      empty_model ops
  in
  check_against_model !fsr final_model

let prop_model =
  QCheck.Test.make ~name:"Simurgh matches the map model" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 60) op_gen))
    (fun ops ->
      let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in
      let fs = Fs.mkfs ~euid:0 region in
      run_ops fs ops ~remount_every:0)

let prop_model_with_remounts =
  QCheck.Test.make ~name:"model holds across remounts" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 20 80) op_gen))
    (fun ops ->
      let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in
      let fs = Fs.mkfs ~euid:0 region in
      run_ops fs ops ~remount_every:20)

(* --- differential oracle: resolve cache on vs off ------------------------- *)

(* The same operations, under three credentials (root and two tenants),
   on a volume with the resolve cache and one without: every result and
   every errno must match.  Paths run through [..] and symlinks over a
   small name space, so directory renames, rmdirs and chmods land under
   prefixes the cache holds. *)
type dop =
  | Dmkdir of int * string * int
  | Drmdir of int * string
  | Dcreate of int * string
  | Dunlink of int * string
  | Drename of int * string * string
  | Dsymlink of int * string * string
  | Dchmod of int * string * int
  | Dstat of int * string
  | Dopen of int * string

let pp_dop = function
  | Dmkdir (c, p, m) -> Printf.sprintf "%d: mkdir %s %o" c p m
  | Drmdir (c, p) -> Printf.sprintf "%d: rmdir %s" c p
  | Dcreate (c, p) -> Printf.sprintf "%d: create %s" c p
  | Dunlink (c, p) -> Printf.sprintf "%d: unlink %s" c p
  | Drename (c, a, b) -> Printf.sprintf "%d: rename %s %s" c a b
  | Dsymlink (c, t, p) -> Printf.sprintf "%d: symlink %s -> %s" c p t
  | Dchmod (c, p, m) -> Printf.sprintf "%d: chmod %s %o" c p m
  | Dstat (c, p) -> Printf.sprintf "%d: stat %s" c p
  | Dopen (c, p) -> Printf.sprintf "%d: open %s" c p

let dop_gen =
  QCheck.Gen.(
    let cred = int_range 0 2 in
    let weighted l = frequency (List.map (fun (w, x) -> (w, return x)) l) in
    (* few names and shallow paths, so operations meet existing state *)
    let comp = weighted [ (4, "a"); (4, "b"); (1, "c"); (2, "l") ] in
    let depth = weighted [ (3, 1); (4, 2); (3, 3); (1, 4) ] in
    let path comps =
      map (fun cs -> "/" ^ String.concat "/" cs) (list_size depth comps)
    in
    (* plain paths name objects; lookups also climb with [..] *)
    let plain = path comp in
    let walk = path (frequency [ (6, comp); (1, return "..") ]) in
    let dperm = oneofl [ 0o777; 0o755; 0o711; 0o700 ] in
    let perm = oneofl [ 0o777; 0o755; 0o711; 0o700; 0o644; 0o070; 0o007; 0 ] in
    let target =
      oneofl
        [ "/a"; "/a/b"; "/b"; "/c/a"; "/a/l"; "missing"; "b"; "../b"; "l/a" ]
    in
    frequency
      [
        (3, map3 (fun c p m -> Dmkdir (c, p, m)) cred plain dperm);
        (2, map2 (fun c p -> Drmdir (c, p)) cred plain);
        (2, map2 (fun c p -> Dcreate (c, p)) cred plain);
        (1, map2 (fun c p -> Dunlink (c, p)) cred plain);
        (3, map3 (fun c a b -> Drename (c, a, b)) cred plain plain);
        (1, map3 (fun c t p -> Dsymlink (c, t, p)) cred target plain);
        (3, map3 (fun c p m -> Dchmod (c, p, m)) cred plain perm);
        (6, map2 (fun c p -> Dstat (c, p)) cred walk);
        (3, map2 (fun c p -> Dopen (c, p)) cred walk);
      ])

let dop_apply (mounts : Fs.t array) op =
  let result f =
    match f () with
    | r -> r
    | exception Errno.Err (e, _) -> Errno.to_string e
  in
  let ok f = result (fun () -> f (); "ok") in
  match op with
  | Dmkdir (c, p, perm) -> ok (fun () -> Fs.mkdir mounts.(c) ~perm p)
  | Drmdir (c, p) -> ok (fun () -> Fs.rmdir mounts.(c) p)
  | Dcreate (c, p) -> ok (fun () -> Fs.create_file mounts.(c) ~perm:0o644 p)
  | Dunlink (c, p) -> ok (fun () -> Fs.unlink mounts.(c) p)
  | Drename (c, a, b) -> ok (fun () -> Fs.rename mounts.(c) a b)
  | Dsymlink (c, target, p) -> ok (fun () -> Fs.symlink mounts.(c) ~target p)
  | Dchmod (c, p, perm) -> ok (fun () -> Fs.chmod mounts.(c) p perm)
  | Dstat (c, p) ->
      result (fun () ->
          let st = Fs.stat mounts.(c) p in
          Printf.sprintf "%s %o uid=%d size=%d"
            (match st.Types.kind with
            | Types.File -> "file"
            | Types.Dir -> "dir"
            | Types.Symlink -> "symlink")
            st.Types.perm st.Types.uid st.Types.size)
  | Dopen (c, p) ->
      ok (fun () -> Fs.close mounts.(c) (Fs.openf mounts.(c) Types.rdonly p))

let dvolume ~secure ~rcache =
  let region = Simurgh_nvmm.Region.create (8 * 1024 * 1024) in
  let root = Fs.mkfs ~euid:0 ~egid:0 ~secure ~rcache region in
  Fs.chmod root "/" 0o777;
  let tenant uid = Fs.mount ~euid:uid ~egid:uid region in
  let m = [| root; tenant 1000; tenant 1001 |] in
  (* a seed tree both tenants can reach into *)
  Fs.mkdir root ~perm:0o777 "/a";
  Fs.mkdir m.(1) ~perm:0o755 "/a/b";
  Fs.mkdir m.(2) ~perm:0o711 "/b";
  Fs.mkdir m.(2) ~perm:0o755 "/b/a";
  Fs.create_file m.(1) "/a/b/a";
  Fs.symlink root ~target:"/b" "/a/l";
  m

let prop_rcache_oracle ~secure =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "resolve cache on = off (%s media)"
         (if secure then "secure" else "legacy"))
    ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_dop ops))
       QCheck.Gen.(list_size (int_range 20 80) dop_gen))
    (fun ops ->
      let cached = dvolume ~secure ~rcache:true
      and plain = dvolume ~secure ~rcache:false in
      List.iter
        (fun op ->
          let want = dop_apply plain op and got = dop_apply cached op in
          if got <> want then
            QCheck.Test.fail_reportf "divergence on %s: cache on %s, off %s"
              (pp_dop op) got want)
        ops;
      true)

(* a fixed seed: the oracle explores the same sequences on every run *)
let oracle_test ~secure =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 18; Bool.to_int secure |])
    (prop_rcache_oracle ~secure)

let () =
  Alcotest.run "fs-model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          QCheck_alcotest.to_alcotest prop_model_with_remounts;
        ] );
      ( "rcache-oracle",
        [ oracle_test ~secure:true; oracle_test ~secure:false ] );
    ]
