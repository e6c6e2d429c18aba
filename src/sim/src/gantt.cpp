#include "ftmc/sim/gantt.hpp"

#include <algorithm>
#include <sstream>

#include "ftmc/common/contracts.hpp"

namespace ftmc::sim {
namespace {

constexpr std::uint32_t kNoOwner = UINT32_MAX;

}  // namespace

std::string render_gantt(const std::vector<rt::Event>& trace,
                         const std::vector<std::string>& task_names,
                         const GanttOptions& options) {
  FTMC_EXPECTS(options.to > options.from,
               "gantt window must have positive length");
  FTMC_EXPECTS(options.width >= 2, "gantt needs at least two columns");

  // Determine the task count from names and the trace.
  std::size_t tasks = task_names.size();
  for (const rt::Event& ev : trace) {
    tasks = std::max<std::size_t>(tasks, ev.task + 1);
  }
  if (tasks == 0) return "(empty trace)\n";

  const int width = options.width;
  const double span = static_cast<double>(options.to - options.from);
  const auto column = [&](Tick t) {
    const double rel = static_cast<double>(t - options.from) / span;
    return std::clamp(static_cast<int>(rel * width), 0, width - 1);
  };

  std::vector<std::string> rows(tasks, std::string(width, '.'));
  std::string mode_row(width, '.');

  // Replay ownership: fill [start, end) of the owner with '#'.
  std::uint32_t owner = kNoOwner;
  Tick owner_since = options.from;
  const auto close_interval = [&](Tick end) {
    if (owner == kNoOwner) return;
    const Tick lo = std::max(owner_since, options.from);
    const Tick hi = std::min(end, options.to);
    if (lo >= hi) return;
    const int c0 = column(lo);
    const int c1 = column(hi - 1);
    for (int c = c0; c <= c1; ++c) rows[owner][c] = '#';
  };

  bool hi_mode = false;
  Tick hi_since = 0;
  for (const rt::Event& ev : trace) {
    if (ev.time >= options.to) break;
    switch (ev.kind) {
      case rt::EventKind::kStart:
        close_interval(ev.time);
        owner = ev.task;
        owner_since = ev.time;
        break;
      case rt::EventKind::kComplete:
      case rt::EventKind::kJobFail:
        if (owner == ev.task) {
          close_interval(ev.time);
          owner = kNoOwner;
        }
        break;
      case rt::EventKind::kKill:
        if (ev.time >= options.from) {
          rows[ev.task][column(ev.time)] = 'X';
        }
        break;
      case rt::EventKind::kModeSwitch:
        if (ev.time >= options.from) {
          mode_row[column(ev.time)] = '!';
        }
        hi_mode = true;
        hi_since = ev.time;
        break;
      case rt::EventKind::kModeReset: {
        const Tick lo = std::max(hi_since, options.from);
        if (hi_mode && ev.time > lo) {
          for (int c = column(lo); c <= column(ev.time - 1); ++c) {
            if (mode_row[c] == '.') mode_row[c] = 'H';
          }
        }
        hi_mode = false;
        break;
      }
      default:
        break;
    }
  }
  close_interval(options.to);
  if (hi_mode) {
    const Tick lo = std::max(hi_since, options.from);
    for (int c = column(lo); c < width; ++c) {
      if (mode_row[c] == '.') mode_row[c] = 'H';
    }
  }

  // Layout.
  std::size_t label_width = 4;
  for (std::size_t i = 0; i < tasks; ++i) {
    const std::string name =
        i < task_names.size() ? task_names[i] : "task" + std::to_string(i);
    label_width = std::max(label_width, name.size());
  }
  std::ostringstream os;
  os << std::string(label_width, ' ') << " " << options.from << " .. "
     << options.to << " ticks\n";
  for (std::size_t i = 0; i < tasks; ++i) {
    const std::string name =
        i < task_names.size() ? task_names[i] : "task" + std::to_string(i);
    os << name << std::string(label_width - name.size(), ' ') << " |"
       << rows[i] << "|\n";
  }
  if (options.show_mode_row) {
    os << "mode" << std::string(label_width - 4, ' ') << " |" << mode_row
       << "|\n";
  }
  return os.str();
}

}  // namespace ftmc::sim
