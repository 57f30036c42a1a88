// A FIFO queue that keeps its capacity.
//
// A power-of-two ring of T that doubles when full and never shrinks, so a
// queue that fills and drains at a steady depth stops reaching the allocator
// once it has grown to that depth. std::deque instead allocates a block at
// the back and frees one at the front every few hundred bytes of traffic:
// about three allocations per 65 kB chunk on a TCP stream's send path, from
// the link's queue, the connection's written slices and TCP's in-flight
// records. Elements are read in queue order by index (0 is the front) and
// by random-access iterators, so a queue kept sorted can be searched with
// std::upper_bound. A push may move every element: references and iterators
// into the queue do not survive it.
#pragma once

#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>

namespace kmsg {

template <typename T>
class Fifo {
 public:
  class const_iterator;

  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  /// The i-th element from the front; requires i < size().
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) return grow_and_emplace(std::forward<Args>(args)...);
    T* slot = &(*this)[size_];
    std::construct_at(slot, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  /// Destroys the front element; requires !empty().
  void pop_front() {
    std::destroy_at(&buf_[head_]);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroys every element; the capacity stays.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const {
    return {this, static_cast<std::ptrdiff_t>(size_)};
  }

  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const Fifo* q, difference_type i) : q_(q), i_(i) {}

    reference operator*() const { return (*q_)[static_cast<std::size_t>(i_)]; }
    pointer operator->() const { return &**this; }
    reference operator[](difference_type n) const { return *(*this + n); }

    const_iterator& operator++() { return *this += 1; }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    const_iterator& operator--() { return *this -= 1; }
    const_iterator operator--(int) {
      const_iterator old = *this;
      --*this;
      return old;
    }
    const_iterator& operator+=(difference_type n) {
      i_ += n;
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      i_ -= n;
      return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return a.i_ - b.i_;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const const_iterator& a, const const_iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const Fifo* q_ = nullptr;
    difference_type i_ = 0;
  };

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// Doubles the ring, constructing the new element before moving the old
  /// ones, so `args` may name an element of this queue.
  template <typename... Args>
  T& grow_and_emplace(Args&&... args) {
    const std::size_t cap = cap_ == 0 ? kMinCapacity : 2 * cap_;
    T* buf = std::allocator<T>().allocate(cap);
    T* slot = std::construct_at(buf + size_, std::forward<Args>(args)...);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = (*this)[i];
      std::construct_at(buf + i, std::move(old));
      std::destroy_at(&old);
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
    ++size_;
    return *slot;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;   ///< 0 or a power of two
  std::size_t head_ = 0;  ///< index of the front element in buf_
  std::size_t size_ = 0;
};

}  // namespace kmsg
