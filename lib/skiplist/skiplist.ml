module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module type S = sig
  type key
  type 'v t

  val create : ?max_height:int -> ?seed:int -> unit -> 'v t
  val insert : 'v t -> key -> 'v -> bool
  val find : 'v t -> key -> 'v option
  val find_le : 'v t -> key -> (key * 'v) option
  val find_ge : 'v t -> key -> (key * 'v) option
  val is_empty : 'v t -> bool
  val length : 'v t -> int
  val iter : (key -> 'v -> unit) -> 'v t -> unit
  val fold : (key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
  val to_list : 'v t -> (key * 'v) list

  module Cursor : sig
    type 'v cursor

    val make : 'v t -> 'v cursor
    val seek_first : 'v cursor -> unit
    val seek : 'v cursor -> key -> unit
    val valid : 'v cursor -> bool
    val current : 'v cursor -> (key * 'v) option
    val next : 'v cursor -> unit
  end

  module Raw : sig
    type 'v location

    val locate : 'v t -> key -> 'v location
    val prev_binding : 'v location -> (key * 'v) option
    val succ_binding : 'v location -> (key * 'v) option
    val try_insert : 'v t -> 'v location -> key -> 'v -> bool
  end
end

module Make (Key : ORDERED) = struct
  type key = Key.t

  type 'v node = { key : key; value : 'v; next : 'v succ Atomic.t array }
  and 'v succ = Nil | Next of 'v node

  type 'v t = {
    head : 'v succ Atomic.t array;
    max_height : int;
    height : int Atomic.t;
    rand : int Atomic.t;
  }

  let create ?(max_height = 20) ?(seed = 0x1d872b41) () =
    if max_height < 1 then invalid_arg "Skiplist.create";
    {
      head = Array.init max_height (fun _ -> Atomic.make Nil);
      max_height;
      height = Atomic.make 1;
      rand = Atomic.make seed;
    }

  (* Geometric tower height with branching factor 4 (LevelDB's choice). *)
  let rec tower_height max_height h r =
    if h >= max_height || r land 3 <> 0 then h
    else tower_height max_height (h + 1) (r lsr 2)

  let random_height t =
    let r =
      Clsm_util.Hashing.mix64 (Atomic.fetch_and_add t.rand 0x3504f333f9de642)
    in
    tower_height t.max_height 1 (r lsr 3)

  let rec bump_height t h =
    let cur = Atomic.get t.height in
    if cur >= h then ()
    else if Atomic.compare_and_set t.height cur h then ()
    else bump_height t h

  (* Searches name a predecessor by the [Next n] value read from the link
     that led to it, [Nil] standing for the head, so walking a level
     allocates nothing: no [Some n] per step and no tuple per level. *)
  let links t = function Nil -> t.head | Next n -> n.next

  (* Descend from [level] to [stop], returning the last node at level
     [stop] whose key is < [key]. *)
  let rec pred_at t key pred level stop =
    match Atomic.get (links t pred).(level) with
    | Next n as s when Key.compare n.key key < 0 -> pred_at t key s level stop
    | Nil | Next _ ->
        if level = stop then pred else pred_at t key pred (level - 1) stop

  (* The last node < [key] at [level + 1], found from the top; the head if
     [level] is the top. Callers finish with their own walk of [level], so
     the link they act on is read once, by them. *)
  let pred_above t key level =
    let top = Atomic.get t.height - 1 in
    if top <= level then Nil else pred_at t key Nil top (level + 1)

  (* Link [node] (published as [link]) at levels 1..h-1. Each level is
     published with a CAS; on failure the level is walked again from the
     same predecessor, which stays in the list forever. Correctness only
     needs the bottom level, which is already linked. *)
  let rec link_level t node link level pred =
    let cell = (links t pred).(level) in
    match Atomic.get cell with
    | Next n as s when Key.compare n.key node.key < 0 ->
        link_level t node link level s
    | succ ->
        Atomic.set node.next.(level) succ;
        if not (Atomic.compare_and_set cell succ link) then
          link_level t node link level pred

  let link_upper t node link =
    for level = 1 to Array.length node.next - 1 do
      link_level t node link level (pred_above t node.key level)
    done

  (* Bottom-level insertion of [node] after [pred]: the one CAS that makes
     it visible. A failed CAS re-walks from [pred]. *)
  let rec insert_from t node link pred =
    let cell = (links t pred).(0) in
    let succ = Atomic.get cell in
    let c = match succ with Next n -> Key.compare n.key node.key | Nil -> 1 in
    if c < 0 then insert_from t node link succ
    else if c = 0 then false (* duplicate *)
    else begin
      Atomic.set node.next.(0) succ;
      if Atomic.compare_and_set cell succ link then begin
        link_upper t node link;
        true
      end
      else insert_from t node link pred
    end

  let insert t key value =
    let h = random_height t in
    bump_height t h;
    (* Upper links are set just before each level's CAS publishes them. *)
    let node = { key; value; next = Array.init h (fun _ -> Atomic.make Nil) } in
    insert_from t node (Next node) (pred_above t key 0)

  (* Bottom-level walks from [pred]: the first node >= key, and the
     greatest node <= key. *)
  let rec ge_from t key pred =
    match Atomic.get (links t pred).(0) with
    | Next n as s when Key.compare n.key key < 0 -> ge_from t key s
    | succ -> succ

  let rec le_from t key pred =
    match Atomic.get (links t pred).(0) with
    | Next n as s ->
        let c = Key.compare n.key key in
        if c < 0 then le_from t key s else if c = 0 then s else pred
    | Nil -> pred

  let find t key =
    match le_from t key (pred_above t key 0) with
    | Next n when Key.compare n.key key = 0 -> Some n.value
    | Next _ | Nil -> None

  let find_le t key =
    match le_from t key (pred_above t key 0) with
    | Next n -> Some (n.key, n.value)
    | Nil -> None

  let find_ge t key =
    match ge_from t key (pred_above t key 0) with
    | Next n -> Some (n.key, n.value)
    | Nil -> None

  let is_empty t = Atomic.get t.head.(0) = Nil

  let fold f t acc =
    let rec go cell acc =
      match Atomic.get cell with
      | Nil -> acc
      | Next n -> go n.next.(0) (f n.key n.value acc)
    in
    go t.head.(0) acc

  let length t = fold (fun _ _ acc -> acc + 1) t 0
  let iter f t = fold (fun k v () -> f k v) t ()
  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  module Cursor = struct
    (* [Nil] both before the first seek and after the last binding. *)
    type 'v cursor = { sl : 'v t; mutable pos : 'v succ }

    let make sl = { sl; pos = Nil }
    let seek_first c = c.pos <- Atomic.get c.sl.head.(0)
    let seek c key = c.pos <- ge_from c.sl key (pred_above c.sl key 0)
    let valid c = match c.pos with Next _ -> true | Nil -> false

    let current c =
      match c.pos with Next n -> Some (n.key, n.value) | Nil -> None

    let next c =
      match c.pos with Next n -> c.pos <- Atomic.get n.next.(0) | Nil -> ()
  end

  module Raw = struct
    type 'v location = {
      loc_prev : 'v succ; (* [Nil]: the head *)
      loc_cell : 'v succ Atomic.t;
      loc_succ : 'v succ;
    }

    (* The predecessor is the greatest node <= key (Algorithm 3 line 5
       locates max (k', ts') <= (k, inf)), so an exact match becomes the
       predecessor rather than the successor. The walk allocates only the
       result. *)
    let rec locate_from t key pred =
      let cell = (links t pred).(0) in
      match Atomic.get cell with
      | Next n as s ->
          let c = Key.compare n.key key in
          if c < 0 then locate_from t key s
          else if c = 0 then
            let cell = n.next.(0) in
            { loc_prev = s; loc_cell = cell; loc_succ = Atomic.get cell }
          else { loc_prev = pred; loc_cell = cell; loc_succ = s }
      | Nil -> { loc_prev = pred; loc_cell = cell; loc_succ = Nil }

    let locate t key = locate_from t key (pred_above t key 0)

    let prev_binding loc =
      match loc.loc_prev with Nil -> None | Next n -> Some (n.key, n.value)

    let succ_binding loc =
      match loc.loc_succ with Nil -> None | Next n -> Some (n.key, n.value)

    let try_insert t loc key value =
      (match loc.loc_prev with
      | Next p -> assert (Key.compare p.key key < 0)
      | Nil -> ());
      (match loc.loc_succ with
      | Next n -> assert (Key.compare n.key key > 0)
      | Nil -> ());
      let h = random_height t in
      bump_height t h;
      let node =
        { key; value; next = Array.init h (fun _ -> Atomic.make loc.loc_succ) }
      in
      let link = Next node in
      if Atomic.compare_and_set loc.loc_cell loc.loc_succ link then begin
        link_upper t node link;
        true
      end
      else false
  end
end
