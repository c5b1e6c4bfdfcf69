(** Ambient per-experiment collector.

    The bench driver installs a collector around each experiment; while
    one is active, every freshly created machine registers its
    observability run and every region / file system registers a counter
    source.  [drain] merges everything into one snapshot for the
    experiment's JSON export and uninstalls the collector.

    When no collector is installed (unit tests, library use) all
    registration calls are no-ops, so nothing is retained and runs stay
    strictly per-machine. *)

type collector = {
  mutable runs : Run.t list;
  mutable sources : (unit -> (string * float) list) list;
  named : (string, unit) Hashtbl.t;
      (** names claimed by [note_source ~name] registrations *)
}

exception Duplicate_source of string

let () =
  Printexc.register_printer (function
    | Duplicate_source n ->
        Some (Printf.sprintf "Collect.Duplicate_source(%S)" n)
    | _ -> None)

let current : collector option ref = ref None

let install () =
  current := Some { runs = []; sources = []; named = Hashtbl.create 8 }

let active () = !current <> None

(** Register a machine's run (idempotent per run). *)
let note_run r =
  match !current with
  | Some c -> if not (List.memq r c.runs) then c.runs <- r :: c.runs
  | None -> ()

(** Register a thunk producing (counter, value) pairs sampled at drain
    time (region stats, allocator stats, lock registry sizes...).

    Anonymous registrations keep the historical behavior: same-named
    counters from different sources are {e summed} at drain (every
    region of an experiment contributes to one aggregate [region/...]
    family).  A [~name]d registration claims its name exclusively for
    the current collector — a second registration under the same name
    raises {!Duplicate_source}, catching the two-live-regions (or
    two-machines) shadowing bug instead of silently merging streams
    that were meant to stay apart.

    An [~owner]ed source does not keep its owner alive: the collector
    holds [f] through an ephemeron keyed on [owner] and samples it one
    last time when [owner] is finalised, so an experiment that churns
    hundreds of regions retains their counters, not their images. *)
let note_source ?name ?owner f =
  match !current with
  | None -> ()
  | Some c ->
      (match name with
      | None -> ()
      | Some n ->
          if Hashtbl.mem c.named n then raise (Duplicate_source n);
          Hashtbl.replace c.named n ());
      let f =
        match owner with
        | None -> f
        | Some o ->
            let key = Weak.create 1 in
            Weak.set key 0 (Some o);
            let eph = Ephemeron.K1.make o f in
            let last = ref [] in
            Gc.finalise
              (fun o ->
                Option.iter (fun f -> last := f ()) (Ephemeron.K1.query eph o))
              o;
            fun () ->
              match Option.bind (Weak.get key 0) (Ephemeron.K1.query eph) with
              | Some f -> f ()
              | None -> !last
      in
      c.sources <- f :: c.sources

(** Take the last samples of owners that died since the previous call
    and free them.  A finalised owner otherwise lingers for several
    major cycles, so an allocation as large as a region image calls this
    first; a no-op without a collector. *)
let reclaim () = if !current <> None then Gc.full_major ()

(** Merge all registered runs and sampled sources into one fresh run,
    then uninstall the collector. *)
let drain () =
  match !current with
  | None -> Run.create ()
  | Some c ->
      current := None;
      let acc = Run.create () in
      List.iter (fun r -> Run.merge_into acc r) (List.rev c.runs);
      List.iter
        (fun src ->
          List.iter (fun (k, v) -> Metrics.add acc.Run.counters k v) (src ()))
        (List.rev c.sources);
      acc

(** Abandon the current collector without draining. *)
let discard () = current := None
