(** Path parsing shared by all implementations.  Paths are
    absolute-style strings; empty components and ["."] are dropped,
    [".."] is kept for the resolver to interpret. *)

let split p =
  String.split_on_char '/' p
  |> List.filter (fun c -> c <> "" && c <> ".")

(* every component but the last *)
let rec parents = function [] | [ _ ] -> [] | c :: rest -> c :: parents rest

let no_final_component p =
  Errno.raise_ EINVAL (Printf.sprintf "path %S has no final component" p)

(** The final component; the root has none (EINVAL). *)
let basename p =
  match List.rev (split p) with
  | name :: _ -> name
  | [] -> no_final_component p

(** POSIX dirname: the path with its final component removed.  The root
    (and any spelling of it: "/", "//", "/./") has no final component to
    remove, so its dirname is "/". *)
let dirname p = "/" ^ String.concat "/" (parents (split p))

let concat dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

(* --- the path walker ------------------------------------------------------ *)

(** Linux follows at most 40 symlinks in one resolution before ELOOP. *)
let max_symlink_depth = 40

type kind = Dir | Symlink of string  (** its target *) | Other

(** A file system as the walker sees it: ['d] is a directory, ['e] a
    looked-up entry. *)
type ('d, 'e) fs = {
  root : unit -> 'd;
  lookup : 'd -> string -> 'e option;
      (** one charged hop: the traverse check and the name lookup *)
  classify : 'e -> kind;
  enter : 'e -> 'd;  (** a [Dir] entry as a directory *)
  entry : 'd -> 'e;  (** a directory as an entry: the root, a final [..] *)
  prefixes : ((string -> 'd option) * (string -> 'd -> unit)) option;
      (** [(find, add)] over parent directories by canonical parent path
          (["a/b/c"]): [find] is probed when a walk from the root has two
          or more components and no [..]; on a miss, [add] records the
          parent a walk that followed no symlink reached *)
}

(** What a parent-mode walk prepares: it decides the errno of a final
    [..] (see {!resolve_parent}). *)
type mutation = Create | Unlink | Rmdir | Rename

type ('d, 'e) walk = { fs : ('d, 'e) fs; path : string; mutable links : int }

(* Walk [comps] from the root and stop before the last one.  Returns the
   directory reached, its ancestors nearest first (the [..] stack), the
   canonical components of that directory when a prefix hit skipped the
   walk (else []), and the last component (["."] when none is left). *)
let rec from_root w comps =
  match (w.fs.prefixes, comps) with
  | Some (find, add), _ :: _ :: _ when not (List.mem ".." comps) -> (
      let canon = parents comps in
      let key = String.concat "/" canon in
      match find key with
      | Some d -> (d, [], canon, List.nth comps (List.length canon))
      | None -> descend w (w.fs.root ()) [] comps (add key))
  | _ -> descend w (w.fs.root ()) [] comps ignore

and descend w d up comps record =
  match comps with
  | [] -> (d, up, [], ".")
  | [ last ] ->
      record d;
      (d, up, [], last)
  | ".." :: rest -> (
      match up with
      | parent :: up -> descend w parent up rest record
      | [] -> descend w d [] rest record (* the root's [..] *))
  | c :: rest -> (
      let e = hop w d c in
      match w.fs.classify e with
      | Dir -> descend w (w.fs.enter e) (d :: up) rest record
      | Symlink target -> link w d up [] target rest
      | Other -> Errno.raise_ ENOTDIR w.path)

(* Follow a symlink found in directory [d].  A relative target continues
   from [d] with its [..] stack, or, when a prefix hit reached [d] and
   there is no stack, from the root through [d]'s canonical components;
   an absolute one starts afresh at the root. *)
and link w d up canon target rest =
  w.links <- w.links + 1;
  if w.links > max_symlink_depth then Errno.raise_ ELOOP w.path;
  let comps = split target @ rest in
  if String.starts_with ~prefix:"/" target then from_root w comps
  else if canon <> [] then from_root w (canon @ comps)
  else descend w d up comps ignore

and hop w d c =
  match w.fs.lookup d c with Some e -> e | None -> Errno.raise_ ENOENT w.path

(** Resolve [path] to its parent directory and final name, following
    symlinks in the intermediate components.  The root has no final name
    (EINVAL).  A final [..] names an existing directory, not a name to
    create or remove: Linux's errno, except EINVAL (POSIX) for rename's
    EBUSY, which [Errno] lacks. *)
let resolve_parent fs mutation path =
  match from_root { fs; path; links = 0 } (split path) with
  | _, _, _, "." -> no_final_component path
  | _, _, _, ".." ->
      Errno.raise_
        (match mutation with
        | Create -> EEXIST
        | Unlink -> EISDIR
        | Rmdir -> ENOTEMPTY
        | Rename -> EINVAL)
        path
  | d, _, _, name -> (d, name)

(** Resolve [path] to its parent directory (the root's is the root) and
    its entry; [follow] follows a final symlink. *)
let resolve fs ?(follow = true) path =
  let w = { fs; path; links = 0 } in
  let here d up = ((match up with p :: _ -> p | [] -> d), fs.entry d) in
  let rec finish (d, up, canon, last) =
    match (last, up) with
    | "..", parent :: up -> here parent up
    | ("." | ".."), _ -> here d up (* the root's [..] is the root *)
    | name, _ -> (
        let e = hop w d name in
        match if follow then fs.classify e else Other with
        | Symlink target -> finish (link w d up canon target [])
        | Dir | Other -> (d, e))
  in
  finish (from_root w (split path))
