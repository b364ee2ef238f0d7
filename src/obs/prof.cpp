#include "obs/prof.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <vector>

namespace vbatch::obs::prof {

namespace {

/// printf-append into a std::string (report building).
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
    char buf[512];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (n > 0) {
        out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                              sizeof(buf) - 1));
    }
}

double num(const JsonValue* v) {
    return v != nullptr && v->is_number() ? v->number : 0.0;
}

double member_num(const JsonValue& obj, const char* key) {
    return num(obj.find(key));
}

std::string member_str(const JsonValue& obj, const char* key) {
    const JsonValue* v = obj.find(key);
    return v != nullptr && v->is_string() ? v->string : std::string();
}

/// Signed percent change b vs a; 0 when a == 0.
double pct_change(double a, double b) {
    return a != 0.0 ? (b - a) / a * 100.0 : 0.0;
}

void render_phases(std::string& out, const JsonValue& doc) {
    const JsonValue* phases = doc.find("phases");
    if (phases == nullptr || !phases->is_array() || phases->items.empty()) {
        return;
    }
    const double wall = member_num(doc, "wall_seconds");
    std::vector<std::pair<std::string, double>> rows;
    for (const auto& p : phases->items) {
        if (p.is_object()) {
            rows.emplace_back(member_str(p, "name"),
                              member_num(p, "seconds"));
        }
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    out += "phases (seconds, % of wall):\n";
    for (const auto& [name, seconds] : rows) {
        appendf(out, "  %-28s %10.4f  %5.1f%%\n", name.c_str(), seconds,
                wall > 0.0 ? seconds / wall * 100.0 : 0.0);
    }
    out += "\n";
}

void render_roofline(std::string& out, const JsonValue& doc) {
    const JsonValue* traffic = doc.find("traffic");
    if (traffic == nullptr || !traffic->is_object() ||
        traffic->members.empty()) {
        return;
    }
    out += "roofline (per kernel family):\n";
    appendf(out, "  %-28s %8s %10s %10s %8s %7s %9s\n", "family", "calls",
            "GFLOPS", "GB/s", "AI", "%roof", "roof GB/s");
    for (const auto& [family, entry] : traffic->members) {
        if (!entry.is_object()) {
            continue;
        }
        appendf(out, "  %-28s %8.0f %10.2f %10.2f %8.3f %6.1f%% %9.1f\n",
                family.c_str(), member_num(entry, "calls"),
                member_num(entry, "gflops"),
                member_num(entry, "bandwidth_gbs"),
                member_num(entry, "arithmetic_intensity"),
                member_num(entry, "fraction_of_roof") * 100.0,
                member_num(entry, "roof_gbs"));
    }
    out += "\n";
}

void render_pool(std::string& out, const JsonValue& doc) {
    const JsonValue* pool = doc.find("pool");
    if (pool == nullptr || !pool->is_object()) {
        return;
    }
    const JsonValue* armed = pool->find("armed");
    const bool was_armed = armed != nullptr && armed->boolean;
    appendf(out,
            "pool: %d thread(s), %lu dispatched / %lu inline "
            "parallel_for calls\n",
            static_cast<int>(member_num(*pool, "workers")),
            static_cast<unsigned long>(member_num(*pool, "dispatches")),
            static_cast<unsigned long>(member_num(*pool, "inline_runs")));
    // Steal-scheduler counters (absent from pre-scheduler baselines, so
    // probe before rendering -- --diff must keep working against them).
    if (pool->find("steals") != nullptr) {
        appendf(out,
                "  stealing: %lu steals / %lu failed, %lu splits, "
                "%lu parks\n",
                static_cast<unsigned long>(member_num(*pool, "steals")),
                static_cast<unsigned long>(
                    member_num(*pool, "steal_fails")),
                static_cast<unsigned long>(member_num(*pool, "splits")),
                static_cast<unsigned long>(member_num(*pool, "parks")));
    }
    if (was_armed) {
        appendf(out,
                "  utilization %5.1f%%  busy %.3fs  idle %.3fs\n",
                member_num(*pool, "utilization") * 100.0,
                member_num(*pool, "busy_seconds"),
                member_num(*pool, "idle_seconds"));
    } else {
        out += "  (telemetry disarmed; set VBATCH_POOL_STATS=1 for "
               "busy/idle attribution)\n";
    }
    out += "\n";
}

/// Multi-tenant service telemetry: the "service." counter families the
/// engine and its plan cache publish (see src/service/). Rendered only
/// when the document carries at least one of them, so non-service bench
/// reports stay unchanged.
void render_service(std::string& out, const JsonValue& doc) {
    const JsonValue* counters = doc.find("counters");
    if (counters == nullptr || !counters->is_object()) {
        return;
    }
    const auto counter = [&](const char* key) {
        return member_num(*counters, key);
    };
    bool any = false;
    for (const auto& [name, value] : counters->members) {
        if (name.rfind("service.", 0) == 0) {
            any = true;
            break;
        }
    }
    if (!any) {
        return;
    }
    const double builds = counter("service.cache.builds");
    const double reuses = counter("service.cache.reuses");
    const double lookups = builds + reuses;
    appendf(out, "service: %.0f session(s) opened\n",
            counter("service.sessions"));
    appendf(out,
            "  plan cache: %.0f build(s), %.0f reuse(s), %.0f "
            "eviction(s), hit rate %5.1f%%\n",
            builds, reuses, counter("service.cache.evictions"),
            lookups > 0.0 ? reuses / lookups * 100.0 : 0.0);
    appendf(out,
            "  queue: %.0f submitted, %.0f completed, %.0f rejected\n",
            counter("service.queue.submitted"),
            counter("service.queue.completed"),
            counter("service.queue.rejected"));
    out += "\n";
}

/// Envelope-bounded block-Jacobi apply: the
/// "block_jacobi.apply_envelope_frac" gauge (factor entries the apply
/// streams / sum of m^2 over the blocks, from the last numeric pass).
/// Rendered only when the document carries it.
void render_envelope(std::string& out, const JsonValue& doc) {
    const JsonValue* gauges = doc.find("gauges");
    if (gauges == nullptr || !gauges->is_object() ||
        gauges->find("block_jacobi.apply_envelope_frac") == nullptr) {
        return;
    }
    appendf(out,
            "block-jacobi apply: envelope streams %5.1f%% of the dense "
            "factor entries\n\n",
            member_num(*gauges, "block_jacobi.apply_envelope_frac") *
                100.0);
}

void render_perf(std::string& out, const JsonValue& doc,
                 const Options& opts) {
    const JsonValue* perf = doc.find("perf");
    if (perf == nullptr || !perf->is_object() || perf->members.empty()) {
        return;
    }
    std::vector<std::pair<std::string, const JsonValue*>> rows;
    for (const auto& [region, entry] : perf->members) {
        if (entry.is_object()) {
            rows.emplace_back(region, &entry);
        }
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return member_num(*a.second, "seconds") >
               member_num(*b.second, "seconds");
    });
    if (rows.size() > static_cast<std::size_t>(std::max(opts.top_n, 1))) {
        rows.resize(static_cast<std::size_t>(std::max(opts.top_n, 1)));
    }
    out += "perf regions (by seconds; misses per kilo-instruction):\n";
    appendf(out, "  %-28s %8s %10s %6s %8s %8s %8s\n", "region", "calls",
            "seconds", "IPC", "L1D/kI", "LLC/kI", "BR/kI");
    for (const auto& [region, entry] : rows) {
        const double instructions = member_num(*entry, "instructions");
        const double per_ki =
            instructions > 0.0 ? 1000.0 / instructions : 0.0;
        const bool hw = member_num(*entry, "hardware_calls") > 0.0;
        appendf(out, "  %-28s %8.0f %10.4f %6.2f %8.2f %8.2f %8.2f%s\n",
                region.c_str(), member_num(*entry, "calls"),
                member_num(*entry, "seconds"), member_num(*entry, "ipc"),
                member_num(*entry, "l1d_misses") * per_ki,
                member_num(*entry, "llc_misses") * per_ki,
                member_num(*entry, "branch_misses") * per_ki,
                hw ? "" : "  [no hw counters]");
    }
    out += "\n";
}

/// Mean of a series' y values (series points are [x, y] pairs).
double series_mean(const JsonValue& series) {
    const JsonValue* points = series.find("points");
    if (points == nullptr || !points->is_array() || points->items.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& p : points->items) {
        if (p.is_array() && p.items.size() == 2 && p.items[1].is_number()) {
            sum += p.items[1].number;
            ++n;
        }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::map<std::string, const JsonValue*> series_by_name(
    const JsonValue& doc) {
    std::map<std::string, const JsonValue*> out;
    const JsonValue* series = doc.find("series");
    if (series != nullptr && series->is_array()) {
        for (const auto& s : series->items) {
            if (s.is_object()) {
                out.emplace(member_str(s, "name"), &s);
            }
        }
    }
    return out;
}

std::map<std::string, double> phases_by_name(const JsonValue& doc) {
    std::map<std::string, double> out;
    const JsonValue* phases = doc.find("phases");
    if (phases != nullptr && phases->is_array()) {
        for (const auto& p : phases->items) {
            if (p.is_object()) {
                out[member_str(p, "name")] += member_num(p, "seconds");
            }
        }
    }
    return out;
}

}  // namespace

std::string render_report(const JsonValue& doc, const Options& opts) {
    std::string out;
    appendf(out, "== bench report: %s ==\n",
            member_str(doc, "name").c_str());
    appendf(out, "wall: %.3f s\n\n", member_num(doc, "wall_seconds"));
    render_phases(out, doc);
    render_roofline(out, doc);
    render_pool(out, doc);
    render_service(out, doc);
    render_envelope(out, doc);
    render_perf(out, doc, opts);
    return out;
}

std::string render_trace(std::string_view ndjson, const Options& opts) {
    struct RegionAgg {
        std::size_t calls = 0;
        double total_us = 0.0;
        double max_us = 0.0;
    };
    std::map<std::string, RegionAgg> regions;
    std::size_t events = 0, malformed = 0;
    std::size_t pos = 0;
    while (pos < ndjson.size()) {
        std::size_t eol = ndjson.find('\n', pos);
        if (eol == std::string_view::npos) {
            eol = ndjson.size();
        }
        const std::string_view line = ndjson.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.find_first_not_of(" \t\r") == std::string_view::npos) {
            continue;
        }
        JsonValue event;
        try {
            event = parse_json(line);
        } catch (const JsonError&) {
            ++malformed;
            continue;
        }
        ++events;
        if (member_str(event, "type") != "region") {
            continue;
        }
        auto& agg = regions[member_str(event, "name")];
        const double dur = member_num(event, "dur_us");
        agg.calls += 1;
        agg.total_us += dur;
        agg.max_us = std::max(agg.max_us, dur);
    }
    std::vector<std::pair<std::string, RegionAgg>> rows(regions.begin(),
                                                        regions.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second.total_us > b.second.total_us;
    });
    std::string out;
    appendf(out, "trace: %zu events (%zu malformed lines skipped), "
                 "%zu distinct regions\n",
            events, malformed, rows.size());
    const auto keep = static_cast<std::size_t>(std::max(opts.top_n, 1));
    if (rows.size() > keep) {
        rows.resize(keep);
    }
    appendf(out, "top regions (by total time):\n");
    appendf(out, "  %-28s %8s %12s %12s %12s\n", "region", "calls",
            "total ms", "mean us", "max us");
    for (const auto& [name, agg] : rows) {
        appendf(out, "  %-28s %8zu %12.3f %12.2f %12.2f\n", name.c_str(),
                agg.calls, agg.total_us * 1e-3,
                agg.calls > 0 ? agg.total_us / static_cast<double>(agg.calls)
                              : 0.0,
                agg.max_us);
    }
    return out;
}

std::string render_diff(const JsonValue& base, const JsonValue& current) {
    std::string out;
    appendf(out, "== diff: %s -> %s ==\n", member_str(base, "name").c_str(),
            member_str(current, "name").c_str());
    const double wall_a = member_num(base, "wall_seconds");
    const double wall_b = member_num(current, "wall_seconds");
    appendf(out, "wall: %.3f s -> %.3f s (%+.1f%%)\n\n", wall_a, wall_b,
            pct_change(wall_a, wall_b));

    const auto phases_a = phases_by_name(base);
    const auto phases_b = phases_by_name(current);
    if (!phases_a.empty() || !phases_b.empty()) {
        out += "phases:\n";
        for (const auto& [name, sec_a] : phases_a) {
            const auto it = phases_b.find(name);
            if (it == phases_b.end()) {
                appendf(out, "  %-28s %10.4f -> (gone)\n", name.c_str(),
                        sec_a);
            } else {
                appendf(out, "  %-28s %10.4f -> %10.4f  (%+.1f%%)\n",
                        name.c_str(), sec_a, it->second,
                        pct_change(sec_a, it->second));
            }
        }
        for (const auto& [name, sec_b] : phases_b) {
            if (phases_a.find(name) == phases_a.end()) {
                appendf(out, "  %-28s     (new) -> %10.4f\n", name.c_str(),
                        sec_b);
            }
        }
        out += "\n";
    }

    const auto series_a = series_by_name(base);
    const auto series_b = series_by_name(current);
    if (!series_a.empty() || !series_b.empty()) {
        out += "series (mean value):\n";
        for (const auto& [name, sa] : series_a) {
            const auto it = series_b.find(name);
            if (it == series_b.end()) {
                appendf(out, "  %-40s (gone)\n", name.c_str());
                continue;
            }
            const double mean_a = series_mean(*sa);
            const double mean_b = series_mean(*it->second);
            appendf(out, "  %-40s %12.4g -> %12.4g  (%+.1f%%) %s\n",
                    name.c_str(), mean_a, mean_b,
                    pct_change(mean_a, mean_b),
                    member_str(*sa, "unit").c_str());
        }
        for (const auto& [name, sb] : series_b) {
            if (series_a.find(name) == series_a.end()) {
                appendf(out, "  %-40s (new) mean %12.4g %s\n", name.c_str(),
                        series_mean(*sb), member_str(*sb, "unit").c_str());
            }
        }
        out += "\n";
    }

    const JsonValue* traffic_a = base.find("traffic");
    const JsonValue* traffic_b = current.find("traffic");
    if (traffic_b != nullptr && traffic_b->is_object() &&
        !traffic_b->members.empty()) {
        out += "roofline families (GB/s):\n";
        for (const auto& [family, entry_b] : traffic_b->members) {
            const JsonValue* entry_a =
                traffic_a != nullptr ? traffic_a->find(family) : nullptr;
            const double gbs_b = member_num(entry_b, "bandwidth_gbs");
            if (entry_a == nullptr) {
                appendf(out, "  %-28s (new) %10.2f GB/s (%.1f%% of roof)\n",
                        family.c_str(), gbs_b,
                        member_num(entry_b, "fraction_of_roof") * 100.0);
            } else {
                const double gbs_a = member_num(*entry_a, "bandwidth_gbs");
                appendf(out, "  %-28s %10.2f -> %10.2f  (%+.1f%%)\n",
                        family.c_str(), gbs_a, gbs_b,
                        pct_change(gbs_a, gbs_b));
            }
        }
    }
    return out;
}

}  // namespace vbatch::obs::prof
