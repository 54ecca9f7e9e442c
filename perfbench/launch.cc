// Runs one command and reports what it cost the host.
//
//   perfbench_launch REPORT_PATH PROGRAM [ARGS...]
//
// Forks, execs PROGRAM with the launcher's stdin/stdout/stderr, waits for it
// with wait4 and writes "<cpu_seconds> <max_rss_kib> <exit_status>" to
// REPORT_PATH. The CPU time (user+sys) and peak RSS cover the program and
// every descendant it reaped. The launcher exists because Linux carries a
// process's pre-exec peak RSS across exec: a program forked straight from
// the Python runner would report the interpreter's footprint, not its own.
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fputs("usage: perfbench_launch REPORT_PATH PROGRAM [ARGS...]\n", stderr);
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_launch: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("perfbench_launch: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  pid_t got = -1;
  do {
    got = wait4(pid, &status, 0, &usage);
  } while (got < 0 && errno == EINTR);
  if (got != pid) {
    std::perror("perfbench_launch: wait4");
    return 2;
  }
  const double cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                       static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr) {
    std::perror("perfbench_launch: report");
    return 2;
  }
  std::fprintf(report, "%.6f %ld %d\n", cpu_s, usage.ru_maxrss, code);
  if (std::fclose(report) != 0) return 2;
  return code;
}
