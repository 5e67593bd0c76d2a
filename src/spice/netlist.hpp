// Circuit representation for the MNA (modified nodal analysis) simulator.
//
// A Netlist owns a set of Devices connected at named nodes. Ground is the
// node named "0" (alias "gnd") and is excluded from the unknown vector. The
// unknown vector x holds node voltages first, then one branch current per
// device that requires it (voltage sources, inductors, controlled sources).
//
// Devices contribute to analyses through stamp callbacks:
//   * stamp_nonlinear : linearized large-signal model (Newton companion form)
//                       used by DC and transient analyses,
//   * stamp_ac        : small-signal model at a DC operating point,
//   * linear_caps     : capacitances (fixed or evaluated at the OP) that the
//                       transient engine integrates with the trapezoidal rule,
//   * noise_sources   : equivalent noise current generators at the OP.
#pragma once

#include <complex>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.hpp"

namespace maopt::spice {

using linalg::CMat;
using linalg::CVec;
using linalg::Mat;
using linalg::Vec;

/// Index of the ground node; stamps touching it are dropped.
inline constexpr int kGround = -1;

/// Stamp helper around the real MNA matrix/RHS; ignores ground rows/columns.
/// The matrix-only form (no RHS) is used by the ω-affine AC decomposition,
/// where the G and C parts have no excitation of their own.
class RealStamper {
 public:
  RealStamper(Mat& a, Vec& rhs) : a_(a), rhs_(&rhs) {}
  explicit RealStamper(Mat& a) : a_(a), rhs_(nullptr) {}

  void add(int i, int j, double v) {
    if (i == kGround || j == kGround) return;
    a_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) += v;
  }
  /// Two-terminal conductance g between nodes a and b.
  void conductance(int a, int b, double g) {
    add(a, a, g);
    add(b, b, g);
    add(a, b, -g);
    add(b, a, -g);
  }
  /// Current `i` flowing INTO node (adds to the RHS of that node's KCL row).
  void current_into(int node, double i) {
    if (node == kGround || rhs_ == nullptr) return;
    (*rhs_)[static_cast<std::size_t>(node)] += i;
  }
  void rhs_add(int row, double v) {
    if (row == kGround || rhs_ == nullptr) return;
    (*rhs_)[static_cast<std::size_t>(row)] += v;
  }

 private:
  Mat& a_;
  Vec* rhs_;
};

/// Complex counterpart for AC/noise analyses.
class ComplexStamper {
 public:
  ComplexStamper(CMat& a, CVec& rhs) : a_(a), rhs_(rhs) {}

  void add(int i, int j, std::complex<double> v) {
    if (i == kGround || j == kGround) return;
    a_(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) += v;
  }
  void conductance(int a, int b, std::complex<double> g) {
    add(a, a, g);
    add(b, b, g);
    add(a, b, -g);
    add(b, a, -g);
  }
  void current_into(int node, std::complex<double> i) {
    if (node == kGround) return;
    rhs_[static_cast<std::size_t>(node)] += i;
  }
  void rhs_add(int row, std::complex<double> v) {
    if (row == kGround) return;
    rhs_[static_cast<std::size_t>(row)] += v;
  }

 private:
  CMat& a_;
  CVec& rhs_;
};

/// Context for large-signal stamping.
struct NonlinearStampArgs {
  const Vec& x;            ///< current Newton iterate (node voltages + branch currents)
  double source_scale;     ///< independent sources scaled by this (source stepping)
  double time;             ///< < 0: DC analysis (use DC values); >= 0: transient time
};

/// A linear(ized) capacitance between two nodes, integrated by the transient engine.
struct CapacitorStamp {
  int node_a;
  int node_b;
  double capacitance;
};

/// Equivalent noise current generator between two nodes.
/// PSD(f) = white + flicker / f   [A^2/Hz]
struct NoiseSource {
  int node_a;
  int node_b;
  double white;
  double flicker;
  std::string label;
  double psd(double freq) const { return white + (flicker > 0.0 ? flicker / freq : 0.0); }
};

class Device {
 public:
  virtual ~Device() = default;

  /// Number of extra branch-current unknowns this device needs.
  virtual int num_branches() const { return 0; }
  /// Called once by Netlist::prepare() with this device's first branch index.
  void set_branch_base(int base) { branch_base_ = base; }
  int branch_base() const { return branch_base_; }

  virtual void stamp_nonlinear(RealStamper& s, const NonlinearStampArgs& args) const = 0;
  virtual void stamp_ac(ComplexStamper& s, double omega, const Vec& op) const = 0;
  /// ω-affine decomposition of stamp_ac: the full small-signal system is
  /// A(ω) = G + jωC with an ω-independent excitation, so devices stamp their
  /// conductive part into `g`, their capacitive/inductive part into `c`
  /// (scaled by ω at combine time), and their excitation into `rhs`. Every
  /// in-tree stamp_ac is exactly ω-affine; the pure virtual keeps new
  /// devices honest (a silently missing part would corrupt every AC sweep).
  virtual void stamp_ac_parts(RealStamper& g, RealStamper& c, CVec& rhs, const Vec& op) const = 0;
  /// Excitation-only restamp: adds exactly the `rhs` contribution that
  /// stamp_ac_parts would add, nothing else. Lets callers capture several
  /// excitations (set magnitudes, re-collect rhs) against one G/C assembly;
  /// only independent sources carry an AC excitation, so the default is a
  /// no-op.
  virtual void stamp_ac_rhs(CVec& rhs) const { (void)rhs; }
  virtual void collect_caps(std::vector<CapacitorStamp>& caps, const Vec& op) const {
    (void)caps;
    (void)op;
  }
  virtual void collect_noise(std::vector<NoiseSource>& sources, const Vec& op) const {
    (void)sources;
    (void)op;
  }
  /// Appends every time-varying input this device feeds into stamp_nonlinear
  /// at the given time (waveform values of independent sources / loads).
  /// Together with the iterate and the companion state these values fully
  /// determine the assembled system of a transient step, so the transient
  /// engine uses them as part of its step-memo key. Devices without
  /// time-dependence append nothing.
  virtual void collect_time_inputs(double time, Vec& out) const {
    (void)time;
    (void)out;
  }

 private:
  int branch_base_ = -1;
};

class Netlist {
 public:
  /// Returns the index of a named node, creating it on first use.
  /// "0" and "gnd" map to kGround.
  int node(const std::string& name);
  /// Looks up an existing node; throws if unknown.
  int find_node(const std::string& name) const;

  /// Adds a device; the netlist takes ownership. Returns a handle for later
  /// parameter updates (e.g. sweeping a source value).
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto dev = std::make_unique<T>(std::forward<Args>(args)...);
    T* ptr = dev.get();
    devices_.push_back(std::move(dev));
    prepared_ = false;
    return ptr;
  }

  /// Assigns branch indices; must be called (or is called lazily) before analyses.
  void prepare();
  bool prepared() const { return prepared_; }

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t system_size() const { return system_size_; }
  const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  /// Optional human-readable device labels (the deck's element names, set
  /// when a deck is built; used by diagnostic reports). Unknown devices map
  /// to "".
  void set_label(const Device* device, std::string label);
  const std::string& label(const Device* device) const;
  /// Reverse node lookup for reports ("" for unnamed / ground).
  std::string node_name(int node) const;

  /// Builds the linearized system A x_next = rhs at iterate x.
  void build_nonlinear_system(const Vec& x, double source_scale, double time, double gmin,
                              Mat& a, Vec& rhs) const;
  /// Builds the complex small-signal system at angular frequency omega.
  /// One-shot reference path; the sweep hot path uses build_ac_parts().
  void build_ac_system(double omega, const Vec& op, CMat& a, CVec& rhs) const;
  /// Stamps the ω-independent parts of the small-signal system once:
  /// A(ω) = g + jω·c with excitation `rhs`. An AC/noise sweep assembles
  /// these a single time and combines per frequency.
  void build_ac_parts(const Vec& op, Mat& g, Mat& c, CVec& rhs) const;

  /// Rebuilds only the AC excitation vector (the `rhs` that build_ac_parts
  /// fills), picking up source magnitudes changed since the last assembly.
  /// G and C do not depend on AC magnitudes, so pairing one build_ac_parts
  /// with several build_ac_rhs captures a set of excitations for
  /// AcAnalysis::run_multi.
  void build_ac_rhs(CVec& rhs) const;

  std::vector<CapacitorStamp> collect_caps(const Vec& op) const;
  std::vector<NoiseSource> collect_noise(const Vec& op) const;

  /// Collects every device's time-varying stamp inputs at `time` into `out`
  /// (cleared first). See Device::collect_time_inputs.
  void collect_time_inputs(double time, Vec& out) const;

  /// Voltage of node index `n` in solution vector `x` (0 for ground).
  static double voltage(const Vec& x, int n) {
    return n == kGround ? 0.0 : x[static_cast<std::size_t>(n)];
  }
  static std::complex<double> voltage(const CVec& x, int n) {
    return n == kGround ? std::complex<double>{} : x[static_cast<std::size_t>(n)];
  }

 private:
  std::unordered_map<std::string, int> node_ids_;
  std::unordered_map<const Device*, std::string> labels_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::size_t num_nodes_ = 0;
  std::size_t system_size_ = 0;
  bool prepared_ = false;
};

}  // namespace maopt::spice
