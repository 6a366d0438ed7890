#ifndef GANSWER_COMMON_POD_COLUMN_H_
#define GANSWER_COMMON_POD_COLUMN_H_

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace ganswer {

/// \brief A read-mostly column of trivially-copyable values that either
/// owns its storage (a vector) or views caller-owned memory (a span into an
/// mmap-ed snapshot section).
///
/// This is the storage primitive behind the zero-copy snapshot tier: the
/// structures that serve queries (CSR adjacency, permutation offsets, term
/// arena, signature arrays) keep their accessors unchanged while the bytes
/// live either on the heap (bulk-read sections, or columns built in
/// memory) or directly in the file mapping (mmap-ed sections, paged in on
/// first touch).
///
/// A view column never outlives its backing mapping by contract: the
/// Snapshot bundle keeps the MmapFile alive alongside every structure built
/// over it. Mutation (re-finalizing a loaded graph, interning new terms)
/// first calls owned(), which converts a view into an owned copy.
template <typename T>
class PodColumn {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PodColumn() = default;

  /// An owning column adopting \p v.
  explicit PodColumn(std::vector<T> v) { Assign(std::move(v)); }

  // Copying would silently duplicate megabytes; moving is enough everywhere
  // the codebase passes columns around.
  PodColumn(const PodColumn&) = delete;
  PodColumn& operator=(const PodColumn&) = delete;
  PodColumn(PodColumn&& other) noexcept { *this = std::move(other); }
  PodColumn& operator=(PodColumn&& other) noexcept {
    vec_ = std::move(other.vec_);
    view_ = other.view_;
    is_view_ = other.is_view_;
    other.view_ = {};
    other.is_view_ = false;
    if (!is_view_) view_ = std::span<const T>(vec_.data(), vec_.size());
    return *this;
  }

  /// Replaces the contents with an owned vector.
  void Assign(std::vector<T> v) {
    vec_ = std::move(v);
    view_ = std::span<const T>(vec_.data(), vec_.size());
    is_view_ = false;
  }

  /// Replaces the contents with a non-owning view. The caller guarantees
  /// the backing memory outlives this column.
  void AssignView(std::span<const T> s) {
    vec_.clear();
    vec_.shrink_to_fit();
    view_ = s;
    is_view_ = true;
  }

  /// Mutable access; converts a view into an owned copy first, so callers
  /// may append/modify freely afterwards.
  std::vector<T>& owned() {
    if (is_view_) {
      vec_.assign(view_.begin(), view_.end());
      is_view_ = false;
    }
    view_ = {};  // refreshed below: vec_ may reallocate under the caller
    return vec_;
  }

  /// Re-publishes the span after mutation through owned(). Callers that
  /// mutate must call this before the next read access.
  void Publish() {
    if (!is_view_) view_ = std::span<const T>(vec_.data(), vec_.size());
  }

  const T* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T& operator[](size_t i) const { return view_[i]; }
  const T& front() const { return view_.front(); }
  const T& back() const { return view_.back(); }
  std::span<const T> span() const { return view_; }
  auto begin() const { return view_.begin(); }
  auto end() const { return view_.end(); }

  /// True when the column views external memory (an mmap-ed section).
  bool is_view() const { return is_view_; }

  /// Bytes of process heap this column pins (0 for views).
  size_t heap_bytes() const { return is_view_ ? 0 : vec_.capacity() * sizeof(T); }
  /// Bytes of external (mapped) memory this column references.
  size_t view_bytes() const { return is_view_ ? view_.size() * sizeof(T) : 0; }

  friend bool operator==(const PodColumn& a, const PodColumn& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  std::vector<T> vec_;
  std::span<const T> view_;
  bool is_view_ = false;
};

}  // namespace ganswer

#endif  // GANSWER_COMMON_POD_COLUMN_H_
