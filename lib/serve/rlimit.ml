type resource = Address_space | Cpu_time

external setrlimit_stub : int -> int -> int = "cqcsp_setrlimit"

external setrlimit_soft_stub : int -> int -> int = "cqcsp_setrlimit_soft"

external close_fds_except : Unix.file_descr -> Unix.file_descr -> unit
  = "cqcsp_close_fds_except"

external getrlimit_cur_stub : int -> int = "cqcsp_getrlimit_cur"

let tag = function Address_space -> 0 | Cpu_time -> 1

let set r v =
  if v < 0 then Error "negative limit"
  else
    match setrlimit_stub (tag r) v with
    | 0 -> Ok ()
    | errno -> Error (Printf.sprintf "setrlimit failed (errno %d)" errno)

let set_soft r v =
  if v < 0 then Error "negative limit"
  else
    match setrlimit_soft_stub (tag r) v with
    | 0 -> Ok ()
    | errno -> Error (Printf.sprintf "setrlimit failed (errno %d)" errno)

let current r =
  match getrlimit_cur_stub (tag r) with
  | n when n < 0 -> None
  | n -> Some n
