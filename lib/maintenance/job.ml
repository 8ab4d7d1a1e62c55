type t =
  | Flush
  | Repair
  | Compact of { src_level : int; target_level : int }
  | Scrub

let priority = function
  | Flush -> 0
  (* Repair restores write availability (Degraded) or full redundancy
     (quarantine): behind the flush that frees WAL space, ahead of any
     compaction. *)
  | Repair -> 1
  | Compact { src_level; _ } -> src_level + 2
  (* Scrub is pure background hygiene — it yields to everything. *)
  | Scrub -> 1000

let compare a b = Int.compare (priority a) (priority b)

let levels = function
  | Flush | Repair | Scrub -> None
  | Compact { src_level; target_level } -> Some (src_level, target_level)

let pp ppf = function
  | Flush -> Format.fprintf ppf "flush"
  | Repair -> Format.fprintf ppf "repair"
  | Compact { src_level; target_level } ->
      Format.fprintf ppf "compact(L%d->L%d)" src_level target_level
  | Scrub -> Format.fprintf ppf "scrub"
