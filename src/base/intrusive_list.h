// Intrusive doubly-linked list.
//
// The Cache Kernel keeps all of its descriptors in fixed-capacity pools and
// threads them onto free lists, per-priority ready queues, per-space thread
// lists and hash chains without any dynamic allocation, exactly as a PROM
// resident kernel must. An intrusive list gives O(1) unlink of an element
// whose address is known, which the dependency-ordered unloader relies on.

#ifndef SRC_BASE_INTRUSIVE_LIST_H_
#define SRC_BASE_INTRUSIVE_LIST_H_

#include <cstddef>

namespace ckbase {

// Embed one ListNode per list an object can be on. A node is "linked" when it
// is on some list; unlinking is idempotent. Copying an object never copies its
// list membership: a copy starts unlinked, and assigning over a linked object
// takes it off its list first.
struct ListNode {
  ListNode* prev = nullptr;
  ListNode* next = nullptr;

  ListNode() = default;
  ListNode(const ListNode& /*other*/) {}
  ListNode& operator=(const ListNode& other) {
    if (this != &other) {
      Unlink();
    }
    return *this;
  }

  bool linked() const { return prev != nullptr; }

  // Remove from whatever list this node is on. Safe to call when unlinked.
  void Unlink() {
    if (!linked()) {
      return;
    }
    prev->next = next;
    next->prev = prev;
    prev = nullptr;
    next = nullptr;
  }
};

// A list of T where T embeds a ListNode reachable via the NodeMember pointer.
// Example:
//   struct Thread { ListNode ready_node; ... };
//   IntrusiveList<Thread, &Thread::ready_node> ready_queue;
template <typename T, ListNode T::* NodeMember>
class IntrusiveList {
 public:
  IntrusiveList() {
    head_.prev = &head_;
    head_.next = &head_;
  }

  // Lists hold no ownership; destroying a non-empty list leaves elements
  // linked to a dead head, so callers clear first. Guarded in tests.
  ~IntrusiveList() = default;

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_.next == &head_; }

  void PushBack(T* item) { Link(&head_, &(item->*NodeMember)); }
  void PushFront(T* item) { Link(head_.next, &(item->*NodeMember)); }
  // Link `item` just before `pos`, or at the back when `pos` is nullptr.
  void InsertBefore(T* pos, T* item) {
    Link(pos == nullptr ? &head_ : &(pos->*NodeMember), &(item->*NodeMember));
  }

  // Front / back element, or nullptr when empty.
  T* Front() const { return empty() ? nullptr : FromNode(head_.next); }
  T* Back() const { return empty() ? nullptr : FromNode(head_.prev); }
  // The element before `item` (a linked member), or nullptr at the front:
  // the reverse walk is `for (T* x = l.Back(); x != nullptr; x = l.Prev(x))`.
  T* Prev(T* item) const {
    ListNode* node = (item->*NodeMember).prev;
    return node == &head_ ? nullptr : FromNode(node);
  }

  // Pop and return the front element, or nullptr when empty.
  T* PopFront() {
    if (empty()) {
      return nullptr;
    }
    T* item = FromNode(head_.next);
    head_.next->Unlink();
    return item;
  }

  void Remove(T* item) { (item->*NodeMember).Unlink(); }

  // Number of elements; O(n), used by tests and capacity accounting only.
  size_t Size() const {
    size_t n = 0;
    for (ListNode* node = head_.next; node != &head_; node = node->next) {
      ++n;
    }
    return n;
  }

  // Iteration support (forward only; removal of the current element during
  // iteration is allowed if the caller saves `next` first, as the unloader
  // does).
  class Iterator {
   public:
    Iterator(ListNode* node, const ListNode* head) : node_(node), head_(head) {}
    T* operator*() const { return FromNode(node_); }
    Iterator& operator++() {
      node_ = node_->next;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return node_ != other.node_; }

   private:
    ListNode* node_;
    const ListNode* head_;
  };

  Iterator begin() { return Iterator(head_.next, &head_); }
  Iterator end() { return Iterator(&head_, &head_); }

 private:
  static void Link(ListNode* at, ListNode* node) {
    node->prev = at->prev;
    node->next = at;
    at->prev->next = node;
    at->prev = node;
  }

  static T* FromNode(ListNode* node) {
    // Recover the enclosing object from the embedded node. NodeMember is a
    // compile-time member pointer, so the offset is known to the compiler.
    static const T* const probe = nullptr;
    const auto offset =
        reinterpret_cast<const char*>(&(probe->*NodeMember)) - reinterpret_cast<const char*>(probe);
    return reinterpret_cast<T*>(reinterpret_cast<char*>(node) - offset);
  }

  ListNode head_;  // sentinel; prev = tail, next = front
};

}  // namespace ckbase

#endif  // SRC_BASE_INTRUSIVE_LIST_H_
