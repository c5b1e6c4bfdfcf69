(** One measured run and the durability replay, shared by the
    measuring program and the benchmark's tests. *)

module Region = Simurgh_nvmm.Region
module Machine = Simurgh_sim.Machine

type round = {
  modeled : Report.modeled;
  res : Runner.result;
  setup_s : float;
  per_layer : (string * float) list;
  notes : string list;
}

(* One measured run on a freshly built file system.  [check] runs the
   offline checker on the image after the measured phase; [corrupt]
   falsifies the shadow first (a negative control). *)
let round ?(corrupt = false) (spec : Wl.spec) ~seed ~traced ~check ~out =
  Gc.full_major ();
  let tracer =
    if traced then Tracer.create ~threads:spec.Wl.threads else Tracer.off ()
  in
  let region = Region.create (spec.Wl.region_mb * 1024 * 1024) in
  let c0 = Sys.time () in
  let inst = spec.Wl.setup ~region ~seed ~tracer in
  let setup_s = Sys.time () -. c0 in
  if corrupt then inst.Wl.corrupt ();
  let before = Report.snapshot inst.Wl.cfg in
  let machine = Machine.create () in
  let res =
    Runner.run ~machine ~threads:spec.Wl.threads ~ops:spec.Wl.ops ~seed ~tracer
      inst.Wl.step
  in
  let modeled =
    Report.modeled res ~used_bytes:(Fsconfig.used_bytes inst.Wl.cfg)
  in
  let per_layer, notes =
    if traced then begin
      Tracer.write tracer (Filename.concat out ("trace-" ^ spec.Wl.name ^ ".tsv"));
      Report.layers inst res tracer machine before
    end
    else ([], [])
  in
  let violations =
    if check then Simurgh_core.Check.run inst.Wl.cfg.Fsconfig.region else []
  in
  List.iter
    (fun v ->
      Printf.printf "check: %s\n" (Simurgh_core.Check.violation_to_string v))
    violations;
  ({ modeled; res; setup_s; per_layer; notes }, violations = [])

(* Replay the first [replay_ops] app ops of the seed on a strict region,
   cut power, recover, and count the acknowledged writes that are
   missing.  Returns (checker clean, acked, lost). *)
let replay ?(skip_fsync = 0) (spec : Wl.spec) ~seed =
  Gc.full_major ();
  let tracer = Tracer.off () in
  let region =
    Region.create ~mode:Region.Strict (spec.Wl.region_mb * 1024 * 1024)
  in
  let inst = spec.Wl.setup ~region ~seed ~tracer in
  let cfg = inst.Wl.cfg in
  Region.persist_all cfg.Fsconfig.region;
  inst.Wl.skip_fsync := skip_fsync;
  (try
     ignore
       (Runner.run ~limit:spec.Wl.replay_ops ~machine:(Machine.create ())
          ~threads:spec.Wl.threads ~ops:spec.Wl.ops ~seed ~tracer inst.Wl.step)
   with Runner.Stop -> ());
  let verify = inst.Wl.durable () in
  let violations = Fsconfig.crash_and_recover cfg in
  let acked, lost = verify (Fsconfig.remount cfg) in
  (violations = [], acked, lost)

let median l =
  let a = Array.of_list l in
  Simurgh_sim.Stats.percentile a 50.0

