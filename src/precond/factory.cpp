#include "precond/config.hpp"

#include <map>
#include <utility>

#include "base/exception.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/scalar_jacobi.hpp"

namespace vbatch::precond {

namespace {

/// One registry row: a constructor per supported value type (either may
/// be empty when a custom backend registers only one precision).
struct Entry {
    PreconditionerFactory<float> f32;
    PreconditionerFactory<double> f64;
};

template <typename T>
PreconditionerFactory<T>& slot(Entry& e);
template <>
PreconditionerFactory<float>& slot<float>(Entry& e) {
    return e.f32;
}
template <>
PreconditionerFactory<double>& slot<double>(Entry& e) {
    return e.f64;
}

/// Backend keys whose setup has a shareable symbolic phase. "lu" is the
/// LU backend pinned to one lane (see block_jacobi_options).
const std::map<std::string, BlockJacobiBackend>& block_jacobi_kinds() {
    static const std::map<std::string, BlockJacobiBackend> kinds = {
        {"lu", BlockJacobiBackend::lu_simd},
        {"lu-simd", BlockJacobiBackend::lu_simd},
        {"gh", BlockJacobiBackend::gauss_huard},
        {"gh-t", BlockJacobiBackend::gauss_huard_t},
        {"gje-inv", BlockJacobiBackend::gje_inversion},
        {"gje", BlockJacobiBackend::gje_inversion},
        {"cholesky", BlockJacobiBackend::cholesky},
    };
    return kinds;
}

/// The options of block-Jacobi key `key`. "lu" runs the LU at
/// SimdIsa::scalar -- the paper's per-block kernel, which Fig. 9,
/// Table I and the CLI tools measure -- whatever config.simd says.
BlockJacobiOptions block_jacobi_options(const Config& config,
                                        const std::string& key) {
    BlockJacobiOptions opts;
    opts.backend = block_jacobi_kinds().at(key);
    opts.max_block_size = config.max_block_size;
    opts.simd = key == "lu" ? core::SimdIsa::scalar : config.simd;
    opts.parallel = config.parallel;
    opts.layout = config.layout;
    opts.recovery = config.recovery;
    opts.symbolic = config.symbolic;
    return opts;
}

template <typename T>
PreconditionerPtr<T> make_block_jacobi(const sparse::Csr<T>& a,
                                       const Config& config,
                                       const std::string& key) {
    return std::make_unique<BlockJacobi<T>>(
        a, block_jacobi_options(config, key));
}

Entry block_jacobi_entry(const std::string& key) {
    Entry e;
    e.f32 = [key](const sparse::Csr<float>& a, const Config& c) {
        return make_block_jacobi<float>(a, c, key);
    };
    e.f64 = [key](const sparse::Csr<double>& a, const Config& c) {
        return make_block_jacobi<double>(a, c, key);
    };
    return e;
}

std::map<std::string, Entry> builtin_entries() {
    std::map<std::string, Entry> entries;
    Entry none;
    none.f32 = [](const sparse::Csr<float>&, const Config&) {
        return PreconditionerPtr<float>(
            std::make_unique<IdentityPreconditioner<float>>());
    };
    none.f64 = [](const sparse::Csr<double>&, const Config&) {
        return PreconditionerPtr<double>(
            std::make_unique<IdentityPreconditioner<double>>());
    };
    entries.emplace("none", std::move(none));
    Entry jacobi;
    jacobi.f32 = [](const sparse::Csr<float>& a, const Config&) {
        return PreconditionerPtr<float>(
            std::make_unique<ScalarJacobi<float>>(a));
    };
    jacobi.f64 = [](const sparse::Csr<double>& a, const Config&) {
        return PreconditionerPtr<double>(
            std::make_unique<ScalarJacobi<double>>(a));
    };
    entries.emplace("jacobi", std::move(jacobi));
    for (const auto& kind : block_jacobi_kinds()) {
        entries.emplace(kind.first, block_jacobi_entry(kind.first));
    }
    return entries;
}

std::map<std::string, Entry>& registry() {
    static std::map<std::string, Entry> entries = builtin_entries();
    return entries;
}

}  // namespace

template <typename T>
PreconditionerPtr<T> make_preconditioner(const sparse::Csr<T>& a,
                                         const Config& config) {
    auto& entries = registry();
    const auto it = entries.find(config.backend);
    const PreconditionerFactory<T>* factory = nullptr;
    if (it != entries.end()) {
        const auto& f = slot<T>(it->second);
        if (f) {
            factory = &f;
        }
    }
    if (factory == nullptr) {
        std::string known;
        for (const auto& name : registered_backends()) {
            if (!known.empty()) {
                known += ", ";
            }
            known += name;
        }
        throw BadParameter("unknown preconditioner backend '" +
                           config.backend + "' (registered: " + known +
                           ")");
    }
    return (*factory)(a, config);
}

template <typename T>
void register_backend(const std::string& name,
                      PreconditionerFactory<T> factory) {
    slot<T>(registry()[name]) = std::move(factory);
}

std::vector<std::string> registered_backends() {
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto& [name, entry] : registry()) {
        if (entry.f32 || entry.f64) {
            names.push_back(name);
        }
    }
    return names;
}

bool backend_registered(const std::string& name) {
    const auto& entries = registry();
    const auto it = entries.find(name);
    return it != entries.end() && (it->second.f32 || it->second.f64);
}

bool symbolic_backend(const std::string& backend) {
    return block_jacobi_kinds().count(backend) > 0;
}

template <typename T>
std::shared_ptr<const BlockJacobiSymbolic> make_symbolic(
    const sparse::Csr<T>& a, const Config& config) {
    if (!symbolic_backend(config.backend)) {
        return nullptr;
    }
    return build_block_jacobi_symbolic(
        a, block_jacobi_options(config, config.backend));
}

template <typename T>
core::LaneWidth symbolic_lane_width(const Config& config) {
    if (!symbolic_backend(config.backend)) {
        return {};
    }
    return lane_width<T>(block_jacobi_options(config, config.backend));
}

template PreconditionerPtr<float> make_preconditioner<float>(
    const sparse::Csr<float>&, const Config&);
template PreconditionerPtr<double> make_preconditioner<double>(
    const sparse::Csr<double>&, const Config&);
template void register_backend<float>(const std::string&,
                                      PreconditionerFactory<float>);
template void register_backend<double>(const std::string&,
                                       PreconditionerFactory<double>);
template std::shared_ptr<const BlockJacobiSymbolic> make_symbolic<float>(
    const sparse::Csr<float>&, const Config&);
template std::shared_ptr<const BlockJacobiSymbolic> make_symbolic<double>(
    const sparse::Csr<double>&, const Config&);
template core::LaneWidth symbolic_lane_width<float>(const Config&);
template core::LaneWidth symbolic_lane_width<double>(const Config&);

}  // namespace vbatch::precond
