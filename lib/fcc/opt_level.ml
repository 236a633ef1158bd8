type reuse = Reload_shifted | Stream_reuse [@@deriving show, eq]
type schedule = Depth_first | Loads_first | Packed [@@deriving show, eq]
type t = { reuse : reuse; schedule : schedule } [@@deriving show, eq]

let v61 = { reuse = Reload_shifted; schedule = Depth_first }
let ideal = { reuse = Stream_reuse; schedule = Depth_first }
let loads_first = { reuse = Reload_shifted; schedule = Loads_first }
let packed = { reuse = Reload_shifted; schedule = Packed }
let functional t = t.reuse = Reload_shifted

let name t =
  match (t.reuse, t.schedule) with
  | Reload_shifted, Depth_first -> "v61"
  | Stream_reuse, Depth_first -> "ideal"
  | Reload_shifted, Loads_first -> "loads-first"
  | Stream_reuse, Loads_first -> "ideal-loads-first"
  | Reload_shifted, Packed -> "packed"
  | Stream_reuse, Packed -> "ideal-packed"

let all = [ v61; ideal; loads_first; packed ]
let of_name s = List.find_opt (fun o -> name o = s) all
