(** Shadow models: what each workload's outputs must be.  Every app op
    updates the shadow as it completes and every get, read and stat is
    compared against it.  Ops run atomically on the engine, so the
    shadow is exact, including which errnos a race must produce. *)

(** File contents as runs of one repeated byte, oldest first.  A run is
    [acked] once the fsync that followed its append returned. *)
type run = { byte : char; len : int; mutable acked : bool }

type file = { mutable runs : run list; mutable size : int }

let file_of_runs runs =
  { runs; size = List.fold_left (fun acc r -> acc + r.len) 0 runs }

let append f r =
  f.runs <- f.runs @ [ r ];
  f.size <- f.size + r.len

(* Is [data.[off .. off + len)] all [c]?  Compares eight bytes at a time. *)
let all_byte data ~off ~len c =
  let word = Int64.mul 0x0101010101010101L (Int64.of_int (Char.code c)) in
  let stop = off + len in
  let i = ref off and ok = ref true in
  while !ok && !i + 8 <= stop do
    if not (Int64.equal (Bytes.get_int64_le data !i) word) then ok := false;
    i := !i + 8
  done;
  while !ok && !i < stop do
    if Bytes.get data !i <> c then ok := false;
    incr i
  done;
  !ok

(** Does [data] equal the shadow contents at [pos, pos + length data)? *)
let matches f ~pos data =
  let len = Bytes.length data in
  let ok = ref (pos + len <= f.size) in
  let base = ref 0 in
  List.iter
    (fun r ->
      let lo = max pos !base and hi = min (pos + len) (!base + r.len) in
      if !ok && hi > lo then
        ok := all_byte data ~off:(lo - pos) ~len:(hi - lo) r.byte;
      base := !base + r.len)
    f.runs;
  !ok

(** Offsets of the acked runs whose bytes [data] (the whole file as
    read back) does not hold: the acknowledged writes that were lost. *)
let lost_runs f data =
  let lost = ref 0 and base = ref 0 in
  List.iter
    (fun r ->
      if r.acked then begin
        let hold =
          !base + r.len <= Bytes.length data
          && all_byte data ~off:!base ~len:r.len r.byte
        in
        if not hold then incr lost
      end;
      base := !base + r.len)
    f.runs;
  !lost

let acked_runs f = List.length (List.filter (fun r -> r.acked) f.runs)
