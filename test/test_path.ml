(* Path parsing: split/basename/dirname/concat, with the POSIX corner
   cases that used to go wrong (dirname "/" raised EINVAL instead of
   returning "/"). *)

open Simurgh_fs_common

let check_s = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

let test_split () =
  check_sl "plain" [ "a"; "b" ] (Path.split "/a/b");
  check_sl "root" [] (Path.split "/");
  check_sl "double slash" [] (Path.split "//");
  check_sl "empty components" [ "a"; "b" ] (Path.split "//a///b//");
  check_sl "dot dropped" [ "a"; "b" ] (Path.split "/a/./b/.");
  check_sl "dotdot kept" [ "a"; ".."; "b" ] (Path.split "/a/../b")

(* dirname must behave like POSIX dirname(1) on every spelling of a
   path; the table pins the regression where "/" raised EINVAL *)
let test_dirname () =
  List.iter
    (fun (p, want) -> check_s (Printf.sprintf "dirname %S" p) want (Path.dirname p))
    [
      ("/", "/");
      ("//", "/");
      ("/.", "/");
      ("/a", "/");
      ("//a", "/");
      ("/a/", "/");
      ("/a/b", "/a");
      ("/a/b/", "/a");
      ("/a//b", "/a");
      ("/a/b/c", "/a/b");
      ("/a/./b", "/a");
    ]

let test_basename () =
  check_s "plain" "b" (Path.basename "/a/b");
  check_s "trailing slash" "b" (Path.basename "/a/b/");
  check_s "single" "a" (Path.basename "/a");
  (match Path.basename "/" with
  | _ -> Alcotest.fail "basename \"/\" must raise EINVAL"
  | exception Errno.Err (Errno.EINVAL, _) -> ())

let test_concat () =
  check_s "at root" "/a" (Path.concat "/" "a");
  check_s "nested" "/a/b" (Path.concat "/a" "b")

(* dirname/basename recompose: for any normal path, resolving
   (dirname p)/(basename p) yields the same components as p *)
let prop_dirname_basename =
  let gen_path =
    QCheck.Gen.(
      map
        (fun comps -> "/" ^ String.concat "/" comps)
        (list_size (int_range 1 6)
           (string_size ~gen:(char_range 'a' 'z') (int_range 1 4))))
  in
  QCheck.Test.make ~name:"split (dirname p @ basename p) = split p" ~count:200
    (QCheck.make gen_path) (fun p ->
      Path.split (Path.concat (Path.dirname p) (Path.basename p))
      = Path.split p)

(* --- the walker over a toy tree ------------------------------------- *)

(* A toy namespace: nodes named by their canonical path, a hop counter,
   and an optional prefix cache that records what it was asked to keep. *)
type node = {
  name : string;
  kind : [ `Dir of (string, node) Hashtbl.t | `Link of string | `File ];
}

let toy () =
  let mk name kind = { name; kind } in
  let dir name entries =
    let h = Hashtbl.create 8 in
    List.iter (fun n -> Hashtbl.replace h (Path.basename n.name) n) entries;
    mk name (`Dir h)
  in
  (* /a/b/f, /a/c/{up -> ../b, abs -> /a/b, self -> .., loop -> loop},
     /b/f, /file *)
  let ab = dir "/a/b" [ mk "/a/b/f" `File ] in
  let ac =
    dir "/a/c"
      [
        mk "/a/c/up" (`Link "../b");
        mk "/a/c/abs" (`Link "/a/b");
        mk "/a/c/self" (`Link "..");
        mk "/a/c/loop" (`Link "loop");
      ]
  in
  dir "/"
    [ dir "/a" [ ab; ac ]; dir "/b" [ mk "/b/f" `File ]; mk "/file" `File ]

let toy_fs ?prefixes root =
  let hops = ref 0 in
  let fs =
    {
      Path.root = (fun () -> root);
      lookup =
        (fun d c ->
          incr hops;
          match d.kind with
          | `Dir h -> Hashtbl.find_opt h c
          | _ -> Alcotest.fail "lookup in a non-directory");
      classify =
        (fun n ->
          match n.kind with
          | `Dir _ -> Path.Dir
          | `Link t -> Path.Symlink t
          | `File -> Path.Other);
      enter = Fun.id;
      entry = Fun.id;
      prefixes;
    }
  in
  (fs, hops)

let name_of fs ?follow p =
  let parent, n = Path.resolve fs ?follow p in
  (parent.name, n.name)

let expect_errno want f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (Errno.to_string want)
  | exception Errno.Err (e, _) ->
      check_s "errno" (Errno.to_string want) (Errno.to_string e)

let check_pair = Alcotest.(check (pair string string))

let test_walk_plain () =
  let fs, hops = toy_fs (toy ()) in
  check_pair "file" ("/a/b", "/a/b/f") (name_of fs "/a/b/f");
  Alcotest.(check int) "three hops" 3 !hops;
  check_pair "root" ("/", "/") (name_of fs "/");
  check_pair "dotdot climbs" ("/b", "/b/f") (name_of fs "/a/../b/f");
  check_pair "root's dotdot" ("/", "/a") (name_of fs "/../../a");
  expect_errno ENOENT (fun () -> Path.resolve fs "/a/x/f");
  expect_errno ENOTDIR (fun () -> Path.resolve fs "/file/x")

let test_walk_final_dotdot () =
  let fs, _ = toy_fs (toy ()) in
  check_pair "names its directory" ("/", "/a") (name_of fs "/a/b/..");
  check_pair "of the root" ("/", "/") (name_of fs "/a/..");
  check_pair "through a link" ("/", "/a") (name_of fs "/a/c/self");
  List.iter
    (fun (m, e) ->
      expect_errno e (fun () -> Path.resolve_parent fs m "/a/b/.."))
    Path.
      [
        (Create, Errno.EEXIST);
        (Unlink, Errno.EISDIR);
        (Rmdir, Errno.ENOTEMPTY);
        (Rename, Errno.EINVAL);
      ];
  expect_errno ENOENT (fun () -> Path.resolve_parent fs Path.Create "/x/..");
  expect_errno EINVAL (fun () -> Path.resolve_parent fs Path.Create "/")

let test_walk_links () =
  let fs, _ = toy_fs (toy ()) in
  check_pair "relative intermediate" ("/a/b", "/a/b/f")
    (name_of fs "/a/c/up/f");
  check_pair "relative final" ("/a", "/a/b") (name_of fs "/a/c/up");
  check_pair "absolute intermediate" ("/a/b", "/a/b/f")
    (name_of fs "/a/c/abs/f");
  check_pair "dotdot after a link is physical" ("/a/b", "/a/b/f")
    (name_of fs "/a/c/up/../b/f");
  check_pair "nofollow" ("/a/c", "/a/c/up")
    (name_of fs ~follow:false "/a/c/up");
  let parent, n = Path.resolve_parent fs Path.Create "/a/c/up/new" in
  check_pair "parent mode follows intermediates" ("/a/b", "new")
    (parent.name, n);
  expect_errno ELOOP (fun () -> Path.resolve fs "/a/c/loop")

(* a chain of [n] relative links in one directory, the last naming f *)
let test_walk_link_budget () =
  let links = Hashtbl.create 64 in
  let d = { name = "/d"; kind = `Dir links } in
  Hashtbl.replace links "f" { name = "/d/f"; kind = `File };
  Hashtbl.replace links "l1" { name = "/d/l1"; kind = `Link "f" };
  for i = 2 to 41 do
    let n = Printf.sprintf "l%d" i in
    Hashtbl.replace links n
      { name = "/d/" ^ n; kind = `Link (Printf.sprintf "l%d" (i - 1)) }
  done;
  let root = Hashtbl.create 1 in
  Hashtbl.replace root "d" d;
  let fs, _ = toy_fs { name = "/"; kind = `Dir root } in
  Alcotest.(check int) "limit" 40 Path.max_symlink_depth;
  check_pair "40 links resolve" ("/d", "/d/f") (name_of fs "/d/l40");
  expect_errno ELOOP (fun () -> Path.resolve fs "/d/l41")

(* The prefix cache: probed for fresh walks of two or more components
   without [..], filled only by walks that followed no link; a hit skips
   the walk, and a [..] past the hit re-resolves from the root. *)
let test_walk_prefixes () =
  let root = toy () in
  let cache = Hashtbl.create 8 in
  let prefixes = (Hashtbl.find_opt cache, Hashtbl.replace cache) in
  let fs, hops = toy_fs ~prefixes root in
  let keys () =
    List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) cache [])
  in
  ignore (Path.resolve fs "/a/b/f");
  Alcotest.(check (list string)) "recorded" [ "a/b" ] (keys ());
  hops := 0;
  check_pair "hit" ("/a/b", "/a/b/f") (name_of fs "/a/b/f");
  Alcotest.(check int) "one hop after a hit" 1 !hops;
  ignore (Path.resolve fs "/a/c/up/f");
  ignore (Path.resolve fs "/a/../b/f");
  Alcotest.(check (list string)) "links and .. record nothing" [ "a/b" ]
    (keys ());
  for _ = 1 to 2 do
    check_pair "relative .. past a hit" ("/a", "/a/b") (name_of fs "/a/c/up")
  done;
  Alcotest.(check (list string)) "a restart through .. records nothing"
    [ "a/b"; "a/c" ] (keys ());
  check_pair "final .. past a hit" ("/", "/a") (name_of fs "/a/c/self");
  (* a stale entry is believed: the cache owner must keep it coherent *)
  (match root.kind with
  | `Dir h -> Hashtbl.replace cache "a/c" (Hashtbl.find h "b")
  | _ -> assert false);
  check_pair "hit is trusted" ("/b", "/b/f") (name_of fs "/a/c/f")

let () =
  Alcotest.run "path"
    [
      ( "path",
        [
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "dirname" `Quick test_dirname;
          Alcotest.test_case "basename" `Quick test_basename;
          Alcotest.test_case "concat" `Quick test_concat;
          QCheck_alcotest.to_alcotest prop_dirname_basename;
        ] );
      ( "walker",
        [
          Alcotest.test_case "plain walks" `Quick test_walk_plain;
          Alcotest.test_case "final .." `Quick test_walk_final_dotdot;
          Alcotest.test_case "symlinks" `Quick test_walk_links;
          Alcotest.test_case "40-link budget" `Quick test_walk_link_budget;
          Alcotest.test_case "prefix cache" `Quick test_walk_prefixes;
        ] );
    ]
