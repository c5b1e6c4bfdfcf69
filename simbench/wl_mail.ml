(** [mail]: the varmail flowlet of [lib/workloads/filebench.ml] — delete;
    create+append+fsync; open+read+append+fsync; open+read — on 16
    simulated threads in one flat shared directory of 500 files of
    128 KiB.  Each flowlet runs as five engine steps, so flowlets
    interleave and a victim another thread deleted or re-created gives
    the ENOENT / EEXIST the shadow predicts. *)

open Simurgh_sim
open Simurgh_fs_common
module P = Probe.Fs

let files = 500
let file_size = 128 * 1024
let io_size = 16 * 1024
let threads = 16
let ops = 8192
let region_mb = 112
let path_of i = Printf.sprintf "/mail/f%06d" i

type phase = Delete | Create | Read1 | Append2 | Read2

let setup ~region ~seed ~tracer =
  ignore seed;
  let cfg = Fsconfig.build ~region ~tenants:1 in
  let root_fs = cfg.Fsconfig.tenants.(0) in
  let module F = Simurgh_core.Fs in
  F.mkdir root_fs "/mail";
  let chunk = Bytes.make 65536 'p' in
  let shadow = Hashtbl.create files in
  for i = 0 to files - 1 do
    F.create_file root_fs (path_of i);
    let fd = F.openf root_fs Types.wronly (path_of i) in
    for _ = 1 to file_size / 65536 do
      ignore (F.append root_fs fd chunk)
    done;
    F.close root_fs fd;
    Hashtbl.replace shadow (path_of i)
      (Shadow.file_of_runs [ { Shadow.byte = 'p'; len = file_size; acked = false } ])
  done;
  let fs = (root_fs, tracer) in
  let phase = Array.make threads Delete in
  let victim = Array.make threads "" in
  let v2 = Array.make threads "" in
  let saw_errno = Array.make threads false in
  let failure = Array.make threads None in
  let user_bytes = ref 0 in
  let acked_appends = ref 0 in
  let skip_fsync = ref 0 in
  let fail tid msg = if failure.(tid) = None then failure.(tid) <- Some msg in
  (* classify an FS errno: expected iff the shadow predicted it *)
  let guard tid ~expected what f =
    try f () with
    | Errno.Err _ as ex -> (
        match Runner.errno_outcome ~expected what ex with
        | Runner.Failed msg -> fail tid msg
        | Runner.Completed | Runner.Expected_errno -> saw_errno.(tid) <- true)
  in
  let exists path = Hashtbl.mem shadow path in
  (* a name the FS resolved but the shadow lacks is a failure; carry on
     against an empty shadow file *)
  let shadow_of tid path =
    match Hashtbl.find_opt shadow path with
    | Some f -> f
    | None ->
        fail tid (path ^ ": opened, but the shadow has no such file");
        Shadow.file_of_runs []
  in
  let enoent path = if exists path then [] else [ Errno.ENOENT ] in
  let read_whole ~ctx tid path =
    guard tid ~expected:(enoent path) ("read " ^ path) (fun () ->
        let fd = P.openf ~ctx fs Types.rdonly path in
        let f = shadow_of tid path in
        let pos = ref 0 and continue = ref true in
        while !continue do
          let b = P.pread ~ctx fs fd ~pos:!pos ~len:io_size in
          if not (Shadow.matches f ~pos:!pos b) then
            fail tid (Printf.sprintf "read %s at %d: differs from the shadow" path !pos);
          pos := !pos + Bytes.length b;
          if Bytes.length b < io_size then continue := false
        done;
        if !pos <> f.Shadow.size then
          fail tid (Printf.sprintf "read %s: %d bytes, shadow has %d" path !pos f.Shadow.size);
        P.close ~ctx fs fd)
  in
  let append_fsync ~ctx tid path =
    guard tid ~expected:(enoent path) ("append " ^ path) (fun () ->
        let fd = P.openf ~ctx fs Types.wronly path in
        let f = shadow_of tid path in
        let byte = Char.chr (97 + Rng.int ctx.Machine.thr.Sthread.rng 26) in
        let run = { Shadow.byte; len = io_size; acked = false } in
        incr acked_appends;
        if !acked_appends = !skip_fsync then begin
          (* negative control: this append never reaches its persist
             barrier, yet is reported acknowledged *)
          let region = cfg.Fsconfig.region in
          Simurgh_nvmm.Region.set_fence_hook region (fun () ->
              Simurgh_nvmm.Region.clear_fence_hook region;
              raise Runner.Stop);
          (try ignore (P.append ~ctx fs fd (Bytes.make io_size byte))
           with Runner.Stop -> ());
          run.Shadow.acked <- true;
          Shadow.append f run;
          raise Runner.Stop
        end;
        ignore (P.append ~ctx fs fd (Bytes.make io_size byte));
        Shadow.append f run;
        user_bytes := !user_bytes + io_size;
        P.fsync ~ctx fs fd;
        run.Shadow.acked <- true;
        P.close ~ctx fs fd)
  in
  let step ctx =
    let thr = ctx.Machine.thr in
    let tid = thr.Sthread.tid in
    let rng = thr.Sthread.rng in
    match phase.(tid) with
    | Delete ->
        saw_errno.(tid) <- false;
        failure.(tid) <- None;
        let v = path_of (Rng.int rng files) in
        victim.(tid) <- v;
        guard tid ~expected:(enoent v) ("unlink " ^ v) (fun () ->
            P.unlink ~ctx fs v;
            if not (exists v) then fail tid ("unlink " ^ v ^ ": succeeded on a missing name");
            Hashtbl.remove shadow v);
        phase.(tid) <- Create;
        Runner.Continue
    | Create ->
        let v = victim.(tid) in
        guard tid
          ~expected:(if exists v then [ Errno.EEXIST ] else [])
          ("create " ^ v)
          (fun () ->
            P.create_file ~ctx fs v;
            if exists v then fail tid ("create " ^ v ^ ": succeeded on an existing name");
            Hashtbl.replace shadow v (Shadow.file_of_runs []));
        append_fsync ~ctx tid v;
        phase.(tid) <- Read1;
        Runner.Continue
    | Read1 ->
        let v = path_of (Rng.int rng files) in
        v2.(tid) <- v;
        read_whole ~ctx tid v;
        phase.(tid) <- Append2;
        Runner.Continue
    | Append2 ->
        append_fsync ~ctx tid v2.(tid);
        phase.(tid) <- Read2;
        Runner.Continue
    | Read2 ->
        read_whole ~ctx tid (path_of (Rng.int rng files));
        phase.(tid) <- Delete;
        Runner.Done
          (match failure.(tid) with
          | Some msg -> Runner.Failed msg
          | None ->
              if saw_errno.(tid) then Runner.Expected_errno else Runner.Completed)
  in
  let durable () fs =
    let acked = ref 0 and lost = ref 0 in
    Hashtbl.iter
      (fun path f ->
        let n = Shadow.acked_runs f in
        if n > 0 then begin
          acked := !acked + n;
          let data =
            match Simurgh_core.Fs.openf fs Types.rdonly path with
            | fd ->
                let b = Simurgh_core.Fs.pread fs fd ~pos:0 ~len:(f.Shadow.size + 1) in
                Simurgh_core.Fs.close fs fd;
                b
            | exception Errno.Err (Errno.ENOENT, _) -> Bytes.empty
          in
          lost := !lost + Shadow.lost_runs f data
        end)
      shadow;
    (!acked, !lost)
  in
  let corrupt () =
    Hashtbl.iter
      (fun _ f ->
        f.Shadow.runs <-
          List.map (fun r -> { r with Shadow.byte = 'z' }) f.Shadow.runs)
      shadow
  in
  {
    Wl.cfg;
    step;
    user_bytes = (fun () -> !user_bytes);
    layer_metrics = (fun () -> []);
    durable;
    corrupt;
    skip_fsync;
  }

let spec =
  {
    Wl.name = "mail";
    threads;
    ops;
    replay_ops = 512;
    region_mb;
    setup;
  }
