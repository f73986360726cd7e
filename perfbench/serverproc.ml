(* A flash_serve child process, and the facts the benchmark reads about
   it from outside: CPU time and peak RSS from /proc/<pid>. *)

type t = { pid : int; port : int; flags : string list; banner : Unix.file_descr }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

(* /proc files report a length of 0, so read them by chunks. *)
let read_proc path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents b)

(* The banner line "Flash serving DIR on http://127.0.0.1:PORT/ (MODE)". *)
let port_of_banner s =
  let key = "http://127.0.0.1:" in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length s then None
    else if String.sub s i kl = key then
      let j = ref (i + kl) in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub s (i + kl) (!j - i - kl))
    else find (i + 1)
  in
  find 0

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let give_up = Unix.gettimeofday () +. 3. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < give_up ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  try Unix.close t.banner with Unix.Unix_error _ -> ()

(* Start flash_serve and wait for its first 200 on [probe].  Returns the
   server and the seconds from spawn to that response.  The port comes
   from the startup banner on standard output, read from a pipe as soon
   as it is written. *)
let start ~exe ~docroot ~log ~probe =
  let flags = [ "--docroot"; docroot; "--port"; "0" ] in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let banner, out = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe (Array.of_list (exe :: flags)) Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  let deadline = t0 +. 30. in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    Unix.close banner;
    failwith (Printf.sprintf "flash_serve %s; log:\n%s" msg (read_file log))
  in
  let buf = Bytes.create 4096 in
  let rec port seen =
    match port_of_banner seen with
    | Some p -> p
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then fail "printed no port";
        match Unix.select [ banner ] [] [] left with
        | [], _, _ -> fail "printed no port"
        | _ -> (
            match Unix.read banner buf 0 (Bytes.length buf) with
            | 0 -> fail "exited before listening"
            | n -> port (seen ^ Bytes.sub_string buf 0 n)))
  in
  let port = port "" in
  let client = Client.create (Client.tcp_connect port) in
  let rec first_ok () =
    match Client.exchange client probe with
    | Ok r when r.Client.status = 200 -> ()
    | Ok _ | Error _ ->
        if Unix.gettimeofday () > deadline then fail "never answered 200";
        Unix.sleepf 0.0005;
        first_ok ()
  in
  first_ok ();
  let setup = Unix.gettimeofday () -. t0 in
  Client.disconnect client;
  ({ pid; port; flags; banner }, setup)

(* User+system CPU seconds of a whole process (all threads), from
   /proc/<pid>/stat.  Linux reports these in USER_HZ ticks, which is
   100 per second on every architecture it supports. *)
let cpu_seconds pid =
  match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s -> (
      (* Fields after the parenthesised command name, which may itself
         contain spaces. *)
      let rp = String.rindex s ')' in
      let rest = String.sub s (rp + 2) (String.length s - rp - 2) in
      match String.split_on_char ' ' rest with
      | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt
        :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
          (float_of_string utime +. float_of_string stime) /. 100.
      | _ -> nan)

(* The value of field [key] in /proc/<pid>/status. *)
let status_field pid key =
  match read_proc (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some s ->
      let key = key ^ ":" in
      let kl = String.length key in
      List.find_map
        (fun l ->
          if String.length l > kl && String.sub l 0 kl = key then
            Some (String.trim (String.sub l kl (String.length l - kl)))
          else None)
        (String.split_on_char '\n' s)

(* Peak resident set ([VmHWM]) in MiB. *)
let peak_rss_mib t =
  match status_field (string_of_int t.pid) "VmHWM" with
  | None -> nan
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)

(* CPUs online on the host, whatever this process is pinned to. *)
let online_cpus () =
  match read_proc "/proc/cpuinfo" with
  | None -> 0
  | Some s ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' s))

(* The CPUs this process, and every process it starts, may run on. *)
let cpus_allowed () = Option.value (status_field "self" "Cpus_allowed_list") ~default:"?"
