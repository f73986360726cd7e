/* CGI scripts as process groups.
 *
 * A script is started by posix_spawn(3) as the leader of a process
 * group of its own (POSIX_SPAWN_SETPGROUP), so one kill(2) of the
 * group ends it with whatever it started.  Unix.create_process_env
 * cannot set a group, and Unix.fork is refused once the program runs
 * a second domain (sharded mode); posix_spawn forks nothing the OCaml
 * runtime has to know about.
 *
 * The script's argv is its path alone.  The given descriptors become
 * its 0 and 1; its 2 is the server's own.  Everything the server opens
 * close-on-exec stays behind.  The spawn releases the runtime lock:
 * path, argv and environment are copied out of the OCaml heap first.
 */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#include <spawn.h>
#include <stdlib.h>
#include <string.h>
#include <sys/types.h>

/* A NULL-terminated copy of an OCaml string array, freed by
   [free_strings]. */
static char **copy_strings(value arr)
{
  mlsize_t n = Wosize_val(arr), i;
  char **out = caml_stat_alloc((n + 1) * sizeof(char *));
  for (i = 0; i < n; i++) out[i] = caml_stat_strdup(String_val(Field(arr, i)));
  out[n] = NULL;
  return out;
}

static void free_strings(char **strs)
{
  char **p;
  for (p = strs; *p != NULL; p++) caml_stat_free(*p);
  caml_stat_free(strs);
}

CAMLprim value flash_cgi_spawn(value vpath, value venv, value vstdin,
                               value vstdout)
{
  CAMLparam4(vpath, venv, vstdin, vstdout);
  posix_spawn_file_actions_t actions;
  posix_spawnattr_t attr;
  pid_t pid = -1;
  int err;
  char *path = caml_stat_strdup(String_val(vpath));
  char *argv[2] = { path, NULL };
  char **envp = copy_strings(venv);

  posix_spawn_file_actions_init(&actions);
  posix_spawnattr_init(&attr);
  /* Group 0: the child's own pid becomes its group. */
  err = posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  if (err == 0) err = posix_spawnattr_setpgroup(&attr, 0);
  /* A dup2 onto itself also clears close-on-exec (glibc 2.29+). */
  if (err == 0)
    err = posix_spawn_file_actions_adddup2(&actions, Int_val(vstdin), 0);
  if (err == 0)
    err = posix_spawn_file_actions_adddup2(&actions, Int_val(vstdout), 1);
  if (err == 0) {
    caml_enter_blocking_section();
    err = posix_spawn(&pid, path, &actions, &attr, argv, envp);
    caml_leave_blocking_section();
  }
  posix_spawn_file_actions_destroy(&actions);
  posix_spawnattr_destroy(&attr);
  caml_stat_free(path);
  free_strings(envp);
  if (err != 0) caml_unix_error(err, "posix_spawn", vpath);
  CAMLreturn(Val_int(pid));
}
