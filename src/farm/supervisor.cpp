#include "farm/supervisor.hpp"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "farm/manifest.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace tq::farm {

namespace {

using Clock = std::chrono::steady_clock;

volatile std::sig_atomic_t g_signals = 0;

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) TQUAD_THROW("cannot open '" + path + "'");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string describe_exit(int status) {
  if (WIFEXITED(status)) {
    return "exit " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "signal " + std::to_string(sig) + " (" + (name ? name : "?") + ")";
  }
  return "unknown wait status " + std::to_string(status);
}

}  // namespace

void Supervisor::install_signal_handlers() {
  struct sigaction action {};
  // Count signals instead of latching a flag: the run loop maps 1 → drain,
  // >= 2 → escalate (SIGKILL in-flight workers). No SA_RESETHAND — the
  // escalation policy lives in the loop, not in handler disposition; no
  // SA_RESTART so the poll sleep wakes promptly.
  action.sa_handler = [](int) { g_signals = g_signals + 1; };
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

int Supervisor::signal_count() noexcept { return g_signals; }

struct Supervisor::JobState {
  enum class Phase { kPending, kRunning, kDone, kQuarantined };

  JobSpec spec;
  Phase phase = Phase::kPending;
  unsigned attempts = 0;  ///< attempts started so far
  Clock::time_point eligible_at = Clock::time_point::min();  ///< backoff gate
  pid_t pid = -1;
  Clock::time_point deadline = Clock::time_point::max();  ///< watchdog
  bool timed_out = false;
  JobReport report;  ///< valid when kDone
};

Supervisor::Supervisor(FarmOptions options, std::vector<JobSpec> jobs)
    : options_(std::move(options)), specs_(std::move(jobs)) {
  TQUAD_CHECK(!options_.worker_exe.empty(), "farm: worker executable unset");
  TQUAD_CHECK(!options_.state_dir.empty(), "farm: state dir unset");
  TQUAD_CHECK(options_.max_workers > 0, "farm: max_workers must be positive");
  TQUAD_CHECK(options_.max_attempts > 0, "farm: max_attempts must be positive");
}

std::string Supervisor::sidecar_path(std::uint32_t job_id) const {
  return options_.state_dir + "/job" + std::to_string(job_id) + ".tqfs";
}

std::string Supervisor::stderr_path(std::uint32_t job_id, unsigned attempt) const {
  return options_.state_dir + "/job" + std::to_string(job_id) + ".attempt" +
         std::to_string(attempt) + ".stderr";
}

std::string Supervisor::manifest_path() const {
  return options_.state_dir + "/manifest.jsonl";
}

std::uint64_t Supervisor::retry_delay_ms(std::uint32_t job_id,
                                         unsigned attempt) const {
  // Exponential backoff with deterministic per-(job, attempt) jitter, so
  // retry schedules never synchronise into thundering herds yet reruns of
  // the farm behave identically.
  const unsigned shift = std::min(attempt - 1, 10u);
  const std::uint64_t base = options_.backoff_ms << shift;
  SplitMix64 rng(options_.seed ^ (static_cast<std::uint64_t>(job_id) << 32) ^
                 attempt);
  return base + rng.next_below(options_.backoff_ms + 1);
}

void Supervisor::spawn(JobState& job) {
  ++job.attempts;
  const unsigned attempt = job.attempts;
  std::vector<std::string> args;
  args.push_back(options_.worker_exe);
  args.push_back("-worker");
  args.push_back("-trace");
  args.push_back(job.spec.trace_path);
  args.push_back("-sidecar");
  args.push_back(sidecar_path(job.spec.id));
  args.push_back("-job-id");
  args.push_back(std::to_string(job.spec.id));
  args.push_back("-attempt");
  args.push_back(std::to_string(attempt));
  args.push_back("-slice");
  args.push_back(std::to_string(options_.slice_interval));
  if (job.spec.whole) {
    if (!options_.image_path.empty()) {
      args.push_back("-image");
      args.push_back(options_.image_path);
    }
  } else {
    args.push_back("-block-lo");
    args.push_back(std::to_string(job.spec.block_lo));
    args.push_back("-block-hi");
    args.push_back(std::to_string(job.spec.block_hi));
  }
  // Chaos only on non-final attempts: the last attempt always runs clean,
  // so chaos perturbs schedules and retry paths but never the result set.
  const bool chaos = (options_.chaos_kill > 0.0 || options_.chaos_hang > 0.0) &&
                     attempt < options_.max_attempts;
  if (chaos) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", options_.chaos_kill);
    args.push_back("-chaos-kill");
    args.push_back(buf);
    std::snprintf(buf, sizeof buf, "%.6f", options_.chaos_hang);
    args.push_back("-chaos-hang");
    args.push_back(buf);
    args.push_back("-chaos-seed");
    args.push_back(std::to_string(options_.chaos_seed));
  }

  const std::string capture = stderr_path(job.spec.id, attempt);
  const pid_t supervisor = ::getpid();
  const pid_t pid = ::fork();
  TQUAD_CHECK(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    // Child. Only async-signal-safe calls until execv.
    // Die with the supervisor: a worker ignores SIGTERM (drain contract)
    // and a hung one would otherwise outlive a SIGKILLed supervisor. The
    // getppid() re-check covers a supervisor that died before the prctl.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != supervisor) ::_exit(127);
    if (options_.rss_mb > 0) {
      struct rlimit limit;
      limit.rlim_cur = options_.rss_mb << 20;
      limit.rlim_max = options_.rss_mb << 20;
      ::setrlimit(RLIMIT_AS, &limit);
    }
    const int err_fd =
        ::open(capture.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err_fd >= 0) {
      ::dup2(err_fd, 2);
      if (err_fd != 2) ::close(err_fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    // Unreachable on success; 127 mimics the shell's command-not-found.
    const char msg[] = "farm worker: execv failed\n";
    ::write(2, msg, sizeof msg - 1);
    ::_exit(127);
  }
  job.pid = pid;
  job.phase = JobState::Phase::kRunning;
  job.timed_out = false;
  job.deadline = options_.timeout_ms > 0
                     ? Clock::now() + std::chrono::milliseconds(options_.timeout_ms)
                     : Clock::time_point::max();
}

FarmOutcome Supervisor::run() {
  // State dir + checkpoint journal first: a job only ever starts after the
  // manifest knows about it.
  if (::mkdir(options_.state_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    TQUAD_THROW("cannot create state dir '" + options_.state_dir +
                "': " + std::strerror(errno));
  }

  std::vector<JobState> jobs(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) jobs[i].spec = specs_[i];

  FarmOutcome outcome;
  Manifest manifest;
  if (options_.resume) {
    // A mismatched manifest is a user mistake (different -traces, -slice, or
    // -shard-blocks than the checkpointed run), not an internal invariant:
    // report it as a recoverable error so the CLI exits 1, state intact.
    const ManifestState prior = Manifest::load(manifest_path());
    if (prior.job_count != specs_.size()) {
      TQUAD_THROW("farm: -resume job count mismatch (manifest has " +
                  std::to_string(prior.job_count) + ", flags produce " +
                  std::to_string(specs_.size()) +
                  "); same traces and sharding required");
    }
    if (prior.slice_interval != options_.slice_interval) {
      TQUAD_THROW("farm: -resume slice interval mismatch (manifest has " +
                  std::to_string(prior.slice_interval) + ")");
    }
    for (JobState& job : jobs) {
      const auto it = prior.jobs.find(job.spec.id);
      if (it == prior.jobs.end() ||
          it->second.trace_path != job.spec.trace_path ||
          it->second.whole != job.spec.whole ||
          it->second.block_lo != job.spec.block_lo ||
          it->second.block_hi != job.spec.block_hi) {
        TQUAD_THROW("farm: -resume job " + std::to_string(job.spec.id) +
                    " does not match the manifest");
      }
      if (const auto done = prior.done.find(job.spec.id);
          done != prior.done.end()) {
        job.report = decode_sidecar(read_text_file(done->second.sidecar_path));
        job.phase = JobState::Phase::kDone;
        job.attempts = done->second.attempts;
      } else if (prior.quarantined.count(job.spec.id) != 0) {
        job.phase = JobState::Phase::kQuarantined;
        job.attempts = options_.max_attempts;
      }
    }
    manifest.open(manifest_path());
    std::size_t already = 0;
    for (const JobState& job : jobs) {
      already += job.phase == JobState::Phase::kDone ? 1 : 0;
    }
    std::printf("farm: resuming, %zu/%zu jobs already done\n", already,
                jobs.size());
  } else {
    manifest.open(manifest_path());
    manifest.record_farm(specs_.size(), options_.slice_interval);
    for (const JobSpec& spec : specs_) {
      manifest.record_job(spec.id, spec.trace_path, spec.whole, spec.block_lo,
                          spec.block_hi);
    }
  }

  std::printf("farm: %zu jobs, %u workers, %u attempts max\n", jobs.size(),
              options_.max_workers, options_.max_attempts);

  bool escalated = false;
  while (true) {
    const int signals = signal_count();
    if (signals >= 2 && !escalated) {
      escalated = true;
      for (JobState& job : jobs) {
        if (job.phase == JobState::Phase::kRunning) {
          ::kill(job.pid, SIGKILL);
        }
      }
      std::printf("farm: second signal, killing in-flight workers\n");
    }

    // Watchdog: a worker past its deadline gets SIGKILL; the regular reap
    // below then classifies the death as a timeout.
    const Clock::time_point now = Clock::now();
    for (JobState& job : jobs) {
      if (job.phase == JobState::Phase::kRunning && !job.timed_out &&
          now >= job.deadline) {
        job.timed_out = true;
        ++outcome.timeouts;
        ::kill(job.pid, SIGKILL);
      }
    }

    // Reap.
    for (JobState& job : jobs) {
      if (job.phase != JobState::Phase::kRunning) continue;
      int status = 0;
      const pid_t reaped = ::waitpid(job.pid, &status, WNOHANG);
      if (reaped == 0) continue;
      TQUAD_CHECK(reaped == job.pid,
                  std::string("waitpid failed: ") + std::strerror(errno));
      job.pid = -1;
      std::string failure;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        try {
          job.report = decode_sidecar(read_text_file(sidecar_path(job.spec.id)));
          job.phase = JobState::Phase::kDone;
          manifest.record_done(job.spec.id, job.attempts,
                               sidecar_path(job.spec.id));
          std::printf("farm: job %u done (attempt %u)\n", job.spec.id,
                      job.attempts);
          continue;
        } catch (const Error& err) {
          failure = std::string("bad sidecar: ") + err.what();
        }
      } else if (job.timed_out) {
        failure = "timeout after " + std::to_string(options_.timeout_ms) + "ms";
      } else {
        failure = describe_exit(status);
      }
      // Failed attempt.
      if (job.attempts >= options_.max_attempts) {
        job.phase = JobState::Phase::kQuarantined;
        const std::string capture = stderr_path(job.spec.id, job.attempts);
        manifest.record_quarantine(job.spec.id, job.attempts, failure, capture);
        std::printf("farm: job %u QUARANTINED after %u attempts (%s); "
                    "stderr: %s\n",
                    job.spec.id, job.attempts, failure.c_str(), capture.c_str());
      } else {
        job.phase = JobState::Phase::kPending;
        const std::uint64_t delay = retry_delay_ms(job.spec.id, job.attempts);
        job.eligible_at = Clock::now() + std::chrono::milliseconds(delay);
        ++outcome.retries;
        std::printf("farm: job %u failed (%s), retry %u in %llums\n",
                    job.spec.id, failure.c_str(), job.attempts + 1,
                    static_cast<unsigned long long>(delay));
      }
    }

    // Admission (suspended once a drain signal arrived).
    std::size_t running = 0;
    for (const JobState& job : jobs) {
      running += job.phase == JobState::Phase::kRunning ? 1 : 0;
    }
    if (signals == 0) {
      for (JobState& job : jobs) {
        if (running >= options_.max_workers) break;
        if (job.phase != JobState::Phase::kPending) continue;
        if (Clock::now() < job.eligible_at) continue;
        spawn(job);
        ++outcome.spawned;
        ++running;
      }
    }

    bool pending = false;
    for (const JobState& job : jobs) {
      pending |= job.phase == JobState::Phase::kPending;
    }
    if (running == 0 && (!pending || signals > 0)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  for (JobState& job : jobs) {
    switch (job.phase) {
      case JobState::Phase::kDone:
        outcome.reports.push_back(std::move(job.report));
        break;
      case JobState::Phase::kQuarantined:
        outcome.quarantined.push_back(job.spec.id);
        break;
      case JobState::Phase::kPending:
      case JobState::Phase::kRunning:
        outcome.interrupted = true;
        break;
    }
  }
  std::sort(outcome.reports.begin(), outcome.reports.end(),
            [](const JobReport& a, const JobReport& b) {
              return a.job_id < b.job_id;
            });
  if (outcome.interrupted) {
    std::printf("farm: INTERRUPTED — %zu/%zu jobs done; rerun with -resume "
                "to finish\n",
                outcome.reports.size(), jobs.size());
  }
  return outcome;
}

}  // namespace tq::farm
